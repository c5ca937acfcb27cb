//! Operator fusion: aggregation **without decoding** (paper §IV).
//!
//! Two fusion families:
//!
//! * **Delta fusion** (TS2DIFF, Stream VByte): the paper's closed form
//!   `Σ v_k = n·v₀ + Σ_j (n−j)·δ_j` (Example 2's
//!   `3X₀+3D₁+3D₂+2D₃+D₄+12·base`) is a sum of prefix sums, which is the
//!   `Σrel` the in-register decode-and-fold of
//!   [`crate::decode_fold::FoldCursor`] already accumulates — at twice
//!   the closed form's speed on this backend. So [`sum_ts2diff`] and
//!   [`sum_svb`] are adapters over the cursor with no filter.
//! * **Delta–Repeat fusion** (Delta-RLE): per `(Δ, r)` pair the run is an
//!   arithmetic progression, so `Σ = r·a_n + Δ·r(r+1)/2`, `Σ A² ` and
//!   `Σ A·B` are degree-2/3 polynomials (the §IV expansion), and COUNT
//!   within a time range needs no decoding at all. Proposition 3's
//!   incremental `f·g` shape: `a_n` is carried across pairs. This is
//!   where the closed form is asymptotically better than any walk. The
//!   single-column forms live in the cursor's run-space source
//!   ([`crate::decode_fold`]), which also clips a run to a value filter;
//!   [`aggregate_delta_rle`] is that walker with no filter.
//!
//! None of these is a planner strategy and the executor calls none of
//! them: every kept page takes the cursor (`Strategy::Decode`),
//! Delta-RLE pages in run space, FIRST / LAST included, and a pair
//! aggregate folds its merge join's matched pairs. Figure 14(a)'s fusion
//! ablation (none / Delta / Delta+Repeat, and the two-column Σ AᵢBᵢ
//! closed form, which lives in `crates/bench`) is measured over these
//! functions by the `crates/bench` binary `fig14`.

use etsqp_encoding::delta_rle::DeltaRlePage;
use etsqp_encoding::stream_vbyte::{self, SvbPage};
use etsqp_encoding::ts2diff::{self, Ts2DiffPage};
use etsqp_simd::agg::AggState;

use crate::decode::DecodeOptions;
use crate::decode_fold::{FoldCursor, PackedColumn, Runs};
use crate::Result;

/// SUM and COUNT over a whole column: the cursor's fold with no filter
/// where its gate admits `col`, else the serial decode summed.
fn sum_column(
    col: Option<PackedColumn<'_>>,
    opts: &DecodeOptions,
    serial: impl FnOnce() -> etsqp_encoding::Result<Vec<i64>>,
) -> Result<AggState> {
    if let Some(mut cursor) =
        col.and_then(|col| FoldCursor::folder(col, opts.value_range, None, false, false))
    {
        return cursor.fold_range(0, usize::MAX);
    }
    let vals = serial()?;
    Ok(AggState {
        sum: etsqp_simd::agg::sum_i64(&vals),
        count: vals.len() as u64,
        ..AggState::new()
    })
}

/// SUM (and COUNT) over all values of a TS2DIFF page, nothing
/// materialized unless a 32-bit gate rejects the page.
///
/// ```
/// use etsqp_core::{decode::DecodeOptions, fused::sum_ts2diff};
/// let bytes = etsqp_encoding::ts2diff::encode(&[10, 20, 30, 40], 1);
/// let page = etsqp_encoding::ts2diff::parse(&bytes).unwrap();
/// let state = sum_ts2diff(&page, &DecodeOptions::default()).unwrap();
/// assert_eq!(state.sum, 100);
/// ```
pub fn sum_ts2diff(page: &Ts2DiffPage<'_>, opts: &DecodeOptions) -> Result<AggState> {
    sum_column(PackedColumn::ts2diff(page, opts.value_range), opts, || {
        ts2diff::decode_from_parts(page)
    })
}

/// SUM (and COUNT) over all values of a Stream VByte page, the twin of
/// [`sum_ts2diff`]; wide-mode pages (mode 1) decode.
///
/// ```
/// use etsqp_core::{decode::DecodeOptions, fused::sum_svb};
/// let bytes = etsqp_encoding::stream_vbyte::encode(&[10, 20, 30, 40]);
/// let page = etsqp_encoding::stream_vbyte::parse(&bytes).unwrap();
/// let state = sum_svb(&page, &DecodeOptions::default()).unwrap();
/// assert_eq!(state.sum, 100);
/// ```
pub fn sum_svb(page: &SvbPage<'_>, opts: &DecodeOptions) -> Result<AggState> {
    sum_column(PackedColumn::svb(page), opts, || {
        stream_vbyte::decode_from_parts(page)
    })
}

/// Full aggregate state over a Delta-RLE page without flattening or
/// accumulation: COUNT/SUM/MIN/MAX/Σx²/FIRST/LAST from `(Δ, run)` pairs
/// by the run-space walker with no filter. Pairs that disagree with the declared count are the
/// decoder's typed error; values that leave `i64` are [`crate::Error::Overflow`].
pub fn aggregate_delta_rle(page: &DeltaRlePage<'_>) -> Result<AggState> {
    Runs::new(page, None, true).fold_range(0, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::{delta_rle, stream_vbyte, ts2diff};

    fn naive_state(values: &[i64]) -> AggState {
        let mut s = AggState::new();
        values.iter().for_each(|&v| s.push(v));
        s
    }

    #[test]
    fn fused_sum_matches_decode_sum() {
        let values: Vec<i64> = (0..1000).map(|i| 500 + i * 3 + (i % 17)).collect();
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let fused = sum_ts2diff(&page, &DecodeOptions::default()).unwrap();
        let naive = naive_state(&values);
        assert_eq!(fused.sum, naive.sum);
        assert_eq!(fused.count, naive.count);
        assert_eq!(fused.avg(), naive.avg());
    }

    #[test]
    fn fused_sum_example2_identity() {
        // Example 2: sum over the TS2DIFF page equals
        // n·X₀ + Σ weighted deltas + triangular·base.
        let values = vec![12i64, 76, 142, 205];
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let fused = sum_ts2diff(&page, &DecodeOptions::default()).unwrap();
        assert_eq!(fused.sum, (12 + 76 + 142 + 205) as i128);
    }

    #[test]
    fn fused_sum_negative_slopes_and_short() {
        for values in [
            vec![],
            vec![9],
            vec![9, 3],
            (0..100).map(|i| 1000 - i * 7).collect::<Vec<_>>(),
        ] {
            let bytes = ts2diff::encode(&values, 1);
            let page = ts2diff::parse(&bytes).unwrap();
            let fused = sum_ts2diff(&page, &DecodeOptions::default()).unwrap();
            assert_eq!(fused.sum, values.iter().map(|&v| v as i128).sum::<i128>());
        }
    }

    #[test]
    fn fused_svb_sum_matches_decode_sum() {
        let values: Vec<i64> = (0..1000)
            .map(|i| 500 + i * 3 + (i % 17) - (i % 5) * 1000)
            .collect();
        let bytes = stream_vbyte::encode(&values);
        let page = stream_vbyte::parse(&bytes).unwrap();
        assert_eq!(page.mode, 0);
        let fused = sum_svb(&page, &DecodeOptions::default()).unwrap();
        let naive = naive_state(&values);
        assert_eq!(fused.sum, naive.sum);
        assert_eq!(fused.count, naive.count);
        assert_eq!(fused.avg(), naive.avg());
    }

    #[test]
    fn fused_svb_sum_short_and_empty() {
        for values in [
            vec![],
            vec![9],
            vec![9, 3],
            vec![-1, -2, -3],
            (0..100).map(|i| 1000 - i * 7).collect::<Vec<_>>(),
        ] {
            let bytes = stream_vbyte::encode(&values);
            let page = stream_vbyte::parse(&bytes).unwrap();
            let fused = sum_svb(&page, &DecodeOptions::default()).unwrap();
            assert_eq!(fused.sum, values.iter().map(|&v| v as i128).sum::<i128>());
            assert_eq!(fused.count, values.len() as u64);
        }
    }

    #[test]
    fn fused_svb_wide_mode_falls_back() {
        // A delta beyond ±2³¹ forces wide mode; the fallback decodes.
        let values = vec![0i64, 1 << 40, 3, -(1 << 50), 7];
        let bytes = stream_vbyte::encode(&values);
        let page = stream_vbyte::parse(&bytes).unwrap();
        assert_eq!(page.mode, 1);
        let fused = sum_svb(&page, &DecodeOptions::default()).unwrap();
        assert_eq!(fused.sum, values.iter().map(|&v| v as i128).sum::<i128>());
        assert_eq!(fused.count, values.len() as u64);
    }

    #[test]
    fn delta_rle_aggregate_matches_naive() {
        let mut values = Vec::new();
        let mut v = 100i64;
        for (slope, len) in [(5i64, 40usize), (-3, 25), (0, 60), (11, 7)] {
            for _ in 0..len {
                v += slope;
                values.push(v);
            }
        }
        values.insert(0, 100);
        let bytes = delta_rle::encode(&values);
        let page = delta_rle::parse(&bytes).unwrap();
        let fused = aggregate_delta_rle(&page).unwrap();
        let naive = naive_state(&values);
        assert_eq!(fused.sum, naive.sum);
        assert_eq!(fused.sum_sq, naive.sum_sq);
        assert_eq!(fused.count, naive.count);
        assert_eq!(fused.min, naive.min);
        assert_eq!(fused.max, naive.max);
        assert_eq!(fused.variance(), naive.variance());
    }
}
