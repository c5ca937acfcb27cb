//! Valid-value aggregation kernels (paper Definition 2, `f(e, mask)`),
//! with the overflow behaviour of §VI-C: SIMD lanes accumulate in 64 bits
//! with sign-rule overflow detection, and overflowing blocks are
//! recomputed with a wider (`i128`) quantity, so every result is exact.

use crate::backend::dispatch;

/// Exact sum over all values. Never overflows (accumulates into `i128`).
///
/// ```
/// assert_eq!(etsqp_simd::agg::sum_i64(&[i64::MAX, i64::MAX]),
///            2 * i64::MAX as i128);
/// ```
pub fn sum_i64(vals: &[i64]) -> i128 {
    dispatch!(sum_i64(vals))
}

/// Exact sum and count over mask-selected values.
pub fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
    assert!(mask.len() * 64 >= vals.len(), "mask too small");
    dispatch!(masked_sum_i64(vals, mask))
}

/// Minimum and maximum over all values; `None` when empty.
pub fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
    dispatch!(min_max_i64(vals))
}

/// Minimum and maximum over mask-selected values; `None` when the mask
/// selects nothing.
pub fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
    assert!(mask.len() * 64 >= vals.len(), "mask too small");
    dispatch!(masked_min_max_i64(vals, mask))
}

/// Count, exact sum, minimum and maximum of the values inside the
/// inclusive range `[lo, hi]`, in one compare-and-accumulate pass over
/// the slice — no mask is built. `min`/`max` are `None` (and the state
/// empty) when nothing is selected, including when `lo > hi`.
///
/// ```
/// let s = etsqp_simd::agg::fold_range_i64(&[5, -2, 9, 0, 7], 0, 7);
/// assert_eq!((s.count, s.sum, s.min, s.max), (3, 12, Some(0), Some(7)));
/// ```
pub fn fold_range_i64(vals: &[i64], lo: i64, hi: i64) -> AggState {
    dispatch!(fold_range_i64(vals, lo, hi))
}

/// Most stored deltas one [`fold_deltas32`] call takes: the block the
/// page pipelines unpack into between two suffix-pruning checks. The
/// block accumulators are sized by it (see [`RelFold`]).
pub const FOLD_BLOCK: usize = 256;

/// How a stored 32-bit delta becomes the wrapping delta it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaXform {
    /// `stored + base`, wrapping (TS2DIFF order 1, `base` the low 32
    /// bits of `min_delta`).
    AddBase(u32),
    /// Un-ZigZag, `(z >> 1) ^ −(z & 1)` (Sprintz, Stream VByte mode 0).
    ZigZag,
}

/// What [`fold_deltas32`] accumulates, in *relative* space: every term
/// is `rel_k = v_k − v₀` as a two's-complement `i32`, so the caller
/// resolves `Σv = count·v₀ + Σrel` once per subrange.
///
/// Exactness: one call sees at most [`FOLD_BLOCK`] values, so its
/// block-local `Σrel` is below `2⁸·2³¹` and its count below `2⁹` —
/// 64-bit lanes hold both exactly, and they are widened here once per
/// call. `Σrel²` is accumulated modulo `2⁶⁴` per call and is therefore
/// exact when every selected `|rel| < 2²⁸` (`2⁸·2⁵⁶ ≤ 2⁶⁴`); callers ask
/// for it only when page statistics prove that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelFold {
    /// Selected values.
    pub count: u64,
    /// `Σ rel` over the selected values.
    pub sum: i128,
    /// `Σ rel²` over the selected values (only when asked for).
    pub sum_sq: u128,
    /// Smallest selected `rel`; `i32::MAX` when nothing is selected.
    pub min: i32,
    /// Largest selected `rel`; `i32::MIN` when nothing is selected.
    pub max: i32,
}

impl RelFold {
    /// The empty accumulator.
    pub fn new() -> Self {
        RelFold {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: i32::MAX,
            max: i32::MIN,
        }
    }
}

impl Default for RelFold {
    fn default() -> Self {
        Self::new()
    }
}

/// Decode-and-fold over one block of unpacked stored deltas, without
/// writing a value: each delta goes through `xform`, the wrapping
/// inclusive prefix sum seeded by `*carry` yields `rel_k`, and every
/// `rel_k` (as `i32`) inside `[lo, hi]` is accumulated into `acc`
/// (`Σrel²` only when `sum_sq`). `*carry` becomes the last `rel`. An
/// empty range (`lo > hi`) selects nothing and only advances the carry.
///
/// # Panics
/// If `stored` holds more than [`FOLD_BLOCK`] deltas.
pub fn fold_deltas32(
    stored: &[u32],
    xform: DeltaXform,
    carry: &mut u32,
    (lo, hi): (i32, i32),
    sum_sq: bool,
    acc: &mut RelFold,
) {
    assert!(stored.len() <= FOLD_BLOCK, "fold block too long");
    dispatch!(fold_deltas32(stored, xform, carry, (lo, hi), sum_sq, acc))
}

/// Running aggregate state combining partial results from pipeline jobs
/// (the `Merge` node of Algorithm 2 uses this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggState {
    /// Exact running sum.
    pub sum: i128,
    /// Number of aggregated values.
    pub count: u64,
    /// Minimum seen, if any value was aggregated.
    pub min: Option<i64>,
    /// Maximum seen, if any value was aggregated.
    pub max: Option<i64>,
    /// Running sum of squares (for VAR / STDDEV). Saturates at the
    /// `i128` limits: Σx² of a few dozen values near `i64::MAX` exceeds
    /// 2¹²⁷, and VARIANCE is finalized in `f64` where magnitudes that
    /// extreme have long lost integer precision anyway.
    pub sum_sq: i128,
    /// First aggregated value in time order (FIRST_VALUE).
    pub first: Option<i64>,
    /// Last aggregated value in time order (LAST_VALUE).
    pub last: Option<i64>,
}

impl AggState {
    /// Empty state (identity of [`AggState::merge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one value into the state.
    pub fn push(&mut self, v: i64) {
        self.sum += v as i128;
        self.sum_sq = self.sum_sq.saturating_add((v as i128) * (v as i128));
        self.count = self.count.saturating_add(1);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        self.first.get_or_insert(v);
        self.last = Some(v);
    }

    /// Merges another partial state (associative, commutative).
    pub fn merge(&mut self, other: &AggState) {
        // Σx over 2⁶⁴ i64 values stays inside i128; saturating keeps the
        // theoretical limit panic-free without costing exactness.
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.count = self.count.saturating_add(other.count);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        // Partials merge in time order: keep the earliest first and the
        // latest last.
        self.first = self.first.or(other.first);
        self.last = other.last.or(self.last);
    }

    /// Average as a float; `None` when no values were aggregated.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Population variance; `None` when no values were aggregated.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        // Population variance is non-negative by definition; the clamp
        // absorbs f64 rounding and, at extreme magnitudes, the Σx²
        // saturation which can otherwise push the estimate below zero.
        Some((self.sum_sq as f64 / n - mean * mean).max(0.0))
    }

    /// Aggregates a dense slice of decoded values with SIMD kernels.
    pub fn push_slice(&mut self, vals: &[i64]) {
        if vals.is_empty() {
            return;
        }
        self.sum = self.sum.saturating_add(sum_i64(vals));
        self.sum_sq = vals.iter().fold(self.sum_sq, |acc, &v| {
            acc.saturating_add((v as i128) * (v as i128))
        });
        self.count = self.count.saturating_add(vals.len() as u64);
        if let Some((mn, mx)) = min_max_i64(vals) {
            self.min = Some(self.min.map_or(mn, |m| m.min(mn)));
            self.max = Some(self.max.map_or(mx, |m| m.max(mx)));
        }
        self.first.get_or_insert(vals[0]);
        self.last = vals.last().copied().or(self.last);
    }

    /// Aggregates mask-selected values with SIMD kernels.
    pub fn push_masked(&mut self, vals: &[i64], mask: &[u64]) {
        let (s, c) = masked_sum_i64(vals, mask);
        self.sum = self.sum.saturating_add(s);
        self.count = self.count.saturating_add(c);
        for (i, &v) in vals.iter().enumerate() {
            if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                self.sum_sq = self.sum_sq.saturating_add((v as i128) * (v as i128));
            }
        }
        if let Some((mn, mx)) = masked_min_max_i64(vals, mask) {
            self.min = Some(self.min.map_or(mn, |m| m.min(mn)));
            self.max = Some(self.max.map_or(mx, |m| m.max(mx)));
        }
        for (i, &v) in vals.iter().enumerate() {
            if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                self.first.get_or_insert(v);
                self.last = Some(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{fill_mask, new_mask};

    #[test]
    fn sum_matches_naive() {
        let vals: Vec<i64> = (-500..500).map(|i| i * 7919).collect();
        assert_eq!(sum_i64(&vals), vals.iter().map(|&v| v as i128).sum());
    }

    #[test]
    fn sum_survives_extreme_values() {
        // Values that overflow i64 lane accumulation immediately.
        let vals = vec![
            i64::MAX,
            i64::MAX,
            i64::MIN,
            i64::MAX,
            1,
            i64::MAX,
            i64::MAX,
            i64::MAX,
        ];
        let expect: i128 = vals.iter().map(|&v| v as i128).sum();
        assert_eq!(sum_i64(&vals), expect);
    }

    #[test]
    fn masked_sum_respects_mask() {
        let vals: Vec<i64> = (0..130).collect();
        let mut mask = new_mask(vals.len());
        fill_mask(&mut mask, vals.len());
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 130);
        assert_eq!(s, (0..130).sum::<i128>());
        // Sparse mask: every 13th element.
        mask.iter_mut().for_each(|w| *w = 0);
        for i in (0..130).step_by(13) {
            mask[i / 64] |= 1 << (i % 64);
        }
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 10);
        assert_eq!(s, (0..130).step_by(13).sum::<usize>() as i128);
    }

    #[test]
    fn masked_sum_extreme_values() {
        let vals = vec![i64::MAX; 64];
        let mut mask = new_mask(64);
        fill_mask(&mut mask, 64);
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!(c, 64);
        assert_eq!(s, i64::MAX as i128 * 64);
    }

    #[test]
    fn min_max_basics() {
        assert_eq!(min_max_i64(&[]), None);
        assert_eq!(min_max_i64(&[3]), Some((3, 3)));
        let vals: Vec<i64> = vec![5, -2, 9, 0, 7, -8, 3, 3, 1];
        assert_eq!(min_max_i64(&vals), Some((-8, 9)));
    }

    #[test]
    fn agg_state_merge_is_associative() {
        let vals: Vec<i64> = (0..97).map(|i| i * i - 50).collect();
        let mut whole = AggState::new();
        whole.push_slice(&vals);
        let mut left = AggState::new();
        left.push_slice(&vals[..31]);
        let mut right = AggState::new();
        right.push_slice(&vals[31..]);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn agg_state_avg_variance() {
        let mut s = AggState::new();
        s.push_slice(&[2, 4, 6, 8]);
        assert_eq!(s.avg(), Some(5.0));
        assert_eq!(s.variance(), Some(5.0)); // population variance of 2,4,6,8
        assert_eq!(s.min, Some(2));
        assert_eq!(s.max, Some(8));
    }

    #[test]
    fn push_and_push_slice_agree() {
        let vals: Vec<i64> = (-20..20).collect();
        let mut a = AggState::new();
        let mut b = AggState::new();
        vals.iter().for_each(|&v| a.push(v));
        b.push_slice(&vals);
        assert_eq!(a, b);
    }
}
