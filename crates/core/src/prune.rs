//! Pruned pipelines by encoding statistics (paper §V, Propositions 4–5).
//!
//! Two granularities:
//!
//! * **Page pruning** — header min/max statistics rule a page in or out of
//!   a time/value range before its payload is ever loaded (charged I/O).
//! * **Suffix pruning** — *during* a scan, the bounds derived from packing
//!   widths (`D_m ≥ minBase`, `D_M ≤ minBase + 2^ω − 1`, `R_M` from the
//!   run width) prove that the remaining suffix of a page can never
//!   re-enter the filter range, terminating the decode early. For ordered
//!   timestamps this is the "stop after passing `t₂`" rule of Example 2.

use etsqp_encoding::delta_rle::DeltaRlePage;
use etsqp_encoding::ts2diff::Ts2DiffPage;

/// A half-open decision produced by the pruning rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneDecision {
    /// The rest of the sequence may still contain matches — keep decoding.
    Continue,
    /// Proposition 4/5 proves no later element can match — stop now.
    StopRest,
}

/// Bounds extracted from a page's encoding parameters — the statistics
/// §V reads from headers instead of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaBounds {
    /// `D_m`: lower bound of any delta (`minBase`).
    pub d_min: i64,
    /// `D_M`: upper bound of any delta (`minBase + 2^ω − 1`).
    pub d_max: i64,
    /// `R_M`: upper bound of any run length (1 for non-Repeat formats).
    ///
    /// Kept for the §V statistics surface (and for future *run-count*
    /// based rules), but [`prune_rest`] deliberately does not read it:
    /// its `steps` are counted in **tuples**, not `(Δ, run)` pairs, and
    /// in Delta-RLE each tuple applies exactly one delta. The per-tuple
    /// reach bound `v_k + D_M·steps` (resp. `v_k + D_m·steps`) is
    /// therefore already tight regardless of how tuples group into runs
    /// — folding `R_M` in could only *loosen* a bound computed over
    /// pairs (`D_M·R_M` per pair ≥ `D_M` per tuple), never tighten the
    /// per-tuple one. Soundness is property-tested against real
    /// Delta-RLE pages in `tests/prune_properties.rs`.
    pub r_max: u64,
}

impl DeltaBounds {
    /// Bounds of a TS2DIFF page (no Repeat ⇒ `R_M = 1`).
    pub fn from_ts2diff(page: &Ts2DiffPage<'_>) -> Self {
        DeltaBounds {
            d_min: page.delta_lower_bound(),
            d_max: page.delta_upper_bound(),
            r_max: 1,
        }
    }

    /// Bounds of a Delta-RLE page.
    pub fn from_delta_rle(page: &DeltaRlePage<'_>) -> Self {
        DeltaBounds {
            d_min: page.delta_lower_bound(),
            d_max: page.delta_upper_bound(),
            r_max: page.run_upper_bound().max(1),
        }
    }
}

/// Proposition 4/5: given the decoded value `v_k` at position `k` of a
/// sequence of `n` elements and a conjunctive range filter
/// `v > c1 ∧ v < c2` (passed inclusively as `[c1, c2]`), decide whether
/// the remaining `n − k − 1` elements can be pruned.
///
/// ```
/// use etsqp_core::prune::{prune_rest, DeltaBounds, PruneDecision};
/// // Deltas in [0, 7], value 10 at position 95 of 100, filter v ≥ 1000:
/// // the remaining 4 elements can climb at most 28 — prune.
/// let b = DeltaBounds { d_min: 0, d_max: 7, r_max: 1 };
/// assert_eq!(prune_rest(&b, 10, 95, 100, 1000, i64::MAX),
///            PruneDecision::StopRest);
/// ```
///
/// Rule (1): if `v_k < c1` and even the fastest possible climb
/// (`D_M` per step, `R_M` elements per delta) cannot reach `c1`, stop.
/// Rule (2): if `v_k > c2` and even the fastest descent (`D_m`) cannot
/// fall back to `c2`, stop.
pub fn prune_rest(
    bounds: &DeltaBounds,
    v_k: i64,
    k: usize,
    n: usize,
    c1: i64,
    c2: i64,
) -> PruneDecision {
    if k + 1 >= n {
        return PruneDecision::Continue; // nothing left to prune
    }
    let steps = (n - k - 1) as i128;
    // `steps` counts remaining TUPLES (not `(Δ, run)` pairs): each tuple
    // applies exactly one delta, so each moves by at most D_M upward / at
    // least D_m downward — `R_M` cannot sharpen this per-tuple bound (see
    // `DeltaBounds::r_max`). The maximum attainable value over the rest:
    let max_reach = v_k as i128 + (bounds.d_max.max(0) as i128) * steps;
    let min_reach = v_k as i128 + (bounds.d_min.min(0) as i128) * steps;
    if v_k < c1 && max_reach < c1 as i128 {
        return PruneDecision::StopRest;
    }
    if v_k > c2 && min_reach > c2 as i128 {
        return PruneDecision::StopRest;
    }
    // Monotone shortcut (ordered timestamps, Example 2): when deltas are
    // provably non-negative and we already passed c2, nothing later fits.
    if bounds.d_min >= 0 && v_k > c2 {
        return PruneDecision::StopRest;
    }
    PruneDecision::Continue
}

/// For ordered timestamps with a constant known interval (width 0 pages:
/// every delta equals `minBase`), the valid positions can be solved
/// directly (paper §V-A, "when the interval D is constant"): returns the
/// inclusive index range of elements inside `[t_lo, t_hi]`, or `None`
/// when empty.
pub fn constant_interval_positions(
    first_ts: i64,
    interval: i64,
    count: usize,
    t_lo: i64,
    t_hi: i64,
) -> Option<(usize, usize)> {
    if count == 0 || interval < 0 {
        return None;
    }
    if interval == 0 {
        return (first_ts >= t_lo && first_ts <= t_hi).then_some((0, count - 1));
    }
    // first index with t >= t_lo:   i >= (t_lo − first)/interval
    let lo_i = if t_lo <= first_ts {
        0i128
    } else {
        ((t_lo - first_ts) as i128 + interval as i128 - 1) / interval as i128
    };
    // last index with t <= t_hi
    let hi_i = if t_hi < first_ts {
        return None;
    } else {
        ((t_hi - first_ts) as i128) / interval as i128
    };
    let lo_i = lo_i.max(0) as usize;
    let hi_i = (hi_i as usize).min(count - 1);
    (hi_i >= lo_i).then_some((lo_i, hi_i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::ts2diff;

    fn bounds(d_min: i64, d_max: i64, r_max: u64) -> DeltaBounds {
        DeltaBounds {
            d_min,
            d_max,
            r_max,
        }
    }

    #[test]
    fn rule1_stops_when_climb_cannot_reach() {
        // v_k = 10, filter lower bound 1000, 5 elements left, D_M = 100:
        // max reach 510 < 1000 → stop.
        let b = bounds(0, 100, 1);
        assert_eq!(
            prune_rest(&b, 10, 4, 10, 1000, 2000),
            PruneDecision::StopRest
        );
        // 20 elements left: reach 10 + 19·100 = 1910 ≥ 1000 → continue.
        assert_eq!(
            prune_rest(&b, 10, 0, 20, 1000, 2000),
            PruneDecision::Continue
        );
    }

    #[test]
    fn rule2_stops_when_descent_cannot_fall() {
        // v_k = 5000, filter upper bound 100, deltas ≥ −10, 8 left:
        // min reach 5000 − 70 = 4930 > 100 → stop.
        let b = bounds(-10, 50, 1);
        assert_eq!(prune_rest(&b, 5000, 1, 9, 0, 100), PruneDecision::StopRest);
    }

    #[test]
    fn ordered_timestamps_stop_after_upper_bound() {
        // Non-negative deltas (timestamps): once past t_hi, stop.
        let b = bounds(0, 1000, 1);
        assert_eq!(
            prune_rest(&b, 10_001, 3, 1000, 0, 10_000),
            PruneDecision::StopRest
        );
        assert_eq!(
            prune_rest(&b, 9_999, 3, 1000, 0, 10_000),
            PruneDecision::Continue
        );
    }

    #[test]
    fn in_range_never_prunes() {
        let b = bounds(-5, 5, 3);
        assert_eq!(prune_rest(&b, 50, 10, 100, 0, 100), PruneDecision::Continue);
    }

    #[test]
    fn last_element_continues_trivially() {
        let b = bounds(0, 1, 1);
        assert_eq!(prune_rest(&b, -999, 99, 100, 0, 1), PruneDecision::Continue);
    }

    #[test]
    fn bounds_from_real_page_are_sound() {
        let values: Vec<i64> = (0..200).map(|i| i * 7 + (i % 3)).collect();
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let b = DeltaBounds::from_ts2diff(&page);
        for w in values.windows(2) {
            let d = w[1] - w[0];
            assert!(d >= b.d_min && d <= b.d_max);
        }
        // Soundness: pruning claims must never cut real matches. Simulate
        // a scan with rule checks at every position.
        let (c1, c2) = (700, 900);
        for (k, &v) in values.iter().enumerate() {
            if prune_rest(&b, v, k, values.len(), c1, c2) == PruneDecision::StopRest {
                assert!(
                    values[k + 1..].iter().all(|&x| x < c1 || x > c2),
                    "pruned a real match after position {k}"
                );
            }
        }
    }

    #[test]
    fn constant_interval_direct_positions() {
        // t = 100, 110, ..., 190 (10 elements).
        assert_eq!(
            constant_interval_positions(100, 10, 10, 125, 165),
            Some((3, 6))
        );
        assert_eq!(constant_interval_positions(100, 10, 10, 0, 99), None);
        assert_eq!(constant_interval_positions(100, 10, 10, 200, 300), None);
        assert_eq!(
            constant_interval_positions(100, 10, 10, 100, 190),
            Some((0, 9))
        );
        assert_eq!(
            constant_interval_positions(100, 10, 10, 120, 120),
            Some((2, 2))
        );
        // Zero interval (all same timestamp — repeat-encoded).
        assert_eq!(constant_interval_positions(50, 0, 5, 40, 60), Some((0, 4)));
        assert_eq!(constant_interval_positions(50, 0, 5, 60, 70), None);
    }
}
