//! Materializing column decode: every integer codec to a `Vec<i64>`.
//!
//! TS2DIFF, Sprintz and Stream VByte columns are written by the one
//! walker over packed 32-bit deltas, [`crate::decode_fold::FoldCursor`]:
//! unpack a block onto the stack, add the base or un-ZigZag, Algorithm 1's
//! chain-layout prefix, widen `v₀ + rel` into the output — no scratch
//! vector. Row scans, joins, sketches and every aggregate that needs
//! order end here; a filtered SUM/COUNT/MIN/MAX/VARIANCE takes the same
//! walker's fold sink and never materializes the column.
//!
//! The 32-bit path requires every intermediate value to stay within an
//! `i32` offset of the page's first value; [`fits_32bit_path`] and its
//! Sprintz / Stream VByte twins verify this from header statistics alone
//! (width, base, count) — the overflow discipline of §VI-C. A page they
//! reject, and every other codec, goes to the codec crate's serial
//! decoder.

use etsqp_encoding::ts2diff::Ts2DiffPage;
use etsqp_encoding::{sprintz, stream_vbyte, ts2diff, Encoding};

use crate::decode_fold::{FoldCursor, PackedColumn};
use crate::Result;

/// What the caller knows about a column beyond its bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeOptions {
    /// Known (min, max) of the decoded values — page-header statistics.
    /// When present, the 32-bit fast path is gated on the *actual* value
    /// range instead of the conservative width-derived bound, which
    /// otherwise rejects wide packing widths on large pages.
    pub value_range: Option<(i64, i64)>,
}

/// Width of a known `(min, max)` value range: every value lies inside it,
/// so it bounds every offset from the first value.
pub(crate) fn range_spread((mn, mx): (i64, i64)) -> u128 {
    (mx as i128 - mn as i128).unsigned_abs()
}

/// Largest possible `|v_k − v_0|` of a TS2DIFF page from its header alone
/// (width, base, count): `count · max|Δ|`, compounded for order 2.
pub(crate) fn ts2diff_rel_bound(page: &Ts2DiffPage<'_>) -> u128 {
    let lo = page.delta_lower_bound().unsigned_abs();
    let hi = page.delta_upper_bound().unsigned_abs();
    let max_abs = lo.max(hi) as u128;
    let n = page.count as u128;
    if page.order == 1 {
        n.saturating_mul(max_abs)
    } else {
        // |v_rel| ≤ n²·max|ΔΔ| + n·|d₁|; bound conservatively.
        let d1 = page.first[1].wrapping_sub(page.first[0]).unsigned_abs() as u128;
        n.saturating_mul(n)
            .saturating_mul(max_abs)
            .saturating_add(n.saturating_mul(d1))
    }
}

/// Whether the 32-bit relative-offset fast path is provably safe for a
/// page: the largest possible cumulative offset `count · max|Δ|` must stay
/// far inside `i32`. A known `(min, max)` value range (page-header
/// statistics) proves it directly.
pub fn fits_32bit_path(page: &Ts2DiffPage<'_>, opts: &DecodeOptions) -> bool {
    page.width <= 32
        && (opts
            .value_range
            .is_some_and(|r| range_spread(r) < (1 << 31))
            || ts2diff_rel_bound(page) < (1 << 30))
}

/// Largest possible `|v_k − v_0|` of a Sprintz page: `|Δ| ≤ 2^(width−1)`
/// per step.
pub(crate) fn sprintz_rel_bound(page: &sprintz::SprintzPage<'_>) -> u128 {
    (page.count as u128).saturating_mul(page.delta_magnitude_bound().unsigned_abs() as u128)
}

/// The Sprintz twin of [`fits_32bit_path`].
pub(crate) fn sprintz_fits_32bit(page: &sprintz::SprintzPage<'_>) -> bool {
    page.width <= 32 && sprintz_rel_bound(page) < (1 << 30)
}

/// The Stream VByte twin of [`fits_32bit_path`], gated on the
/// control-stream-derived [`stream_vbyte::SvbPage::rel_bound`]: it
/// bounds every prefix sum's magnitude without trusting the data stream,
/// so hostile pages cannot push the wrapping 32-bit arithmetic into
/// silent corruption.
pub(crate) fn svb_fits_32bit(page: &stream_vbyte::SvbPage<'_>) -> bool {
    page.mode == 0 && page.rel_bound < (1 << 30)
}

/// Decodes any integer-encoded column into `out`: the walker's write
/// sink where a 32-bit gate admits the page, the codec crate's serial
/// decoder otherwise. Returns the number of values.
pub fn decode_column(
    encoding: Encoding,
    bytes: &[u8],
    opts: &DecodeOptions,
    out: &mut Vec<i64>,
) -> Result<usize> {
    decode_column_pruned(encoding, bytes, opts, None, out)?;
    Ok(out.len())
}

/// [`decode_column`] that, told the value filter the scan will apply,
/// stops at a prefix of the column once Propositions 4–5 prove the rest
/// cannot pass it (TS2DIFF order 1 on the 32-bit path only). Returns how
/// many trailing values were left out.
pub(crate) fn decode_column_pruned(
    encoding: Encoding,
    bytes: &[u8],
    opts: &DecodeOptions,
    suffix_filter: Option<(i64, i64)>,
    out: &mut Vec<i64>,
) -> Result<usize> {
    let mut write_or = |col: Option<PackedColumn<'_>>,
                        serial: &dyn Fn() -> etsqp_encoding::Result<Vec<i64>>|
     -> Result<usize> {
        match col {
            Some(col) => Ok(FoldCursor::write(col, suffix_filter, out)),
            None => {
                *out = serial()?;
                Ok(0)
            }
        }
    };
    match encoding {
        Encoding::Ts2Diff | Encoding::Ts2DiffOrder2 => {
            let page = ts2diff::parse(bytes)?;
            write_or(PackedColumn::ts2diff(&page, opts.value_range), &|| {
                ts2diff::decode_from_parts(&page)
            })
        }
        Encoding::Sprintz => {
            let page = sprintz::parse(bytes)?;
            write_or(PackedColumn::sprintz(&page), &|| {
                sprintz::decode_from_parts(&page)
            })
        }
        Encoding::StreamVByte => {
            let page = stream_vbyte::parse(bytes)?;
            write_or(PackedColumn::svb(&page), &|| {
                stream_vbyte::decode_from_parts(&page)
            })
        }
        other => write_or(None, &|| other.decode_i64(bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(enc: Encoding, values: &[i64]) {
        let bytes = enc.encode_i64(values);
        let mut out = Vec::new();
        decode_column(enc, &bytes, &DecodeOptions::default(), &mut out).unwrap();
        assert_eq!(out, values, "{}", enc.name());
    }

    #[test]
    fn vectorized_matches_reference_order1() {
        let values: Vec<i64> = (0..1000).map(|i| 10_000 + i * 3 + (i % 11)).collect();
        roundtrip(Encoding::Ts2Diff, &values);
    }

    #[test]
    fn vectorized_matches_reference_order2() {
        let values: Vec<i64> = (0..777i64)
            .map(|i| 1_000_000 + i * 50 + (i * i) % 23)
            .collect();
        let bytes = ts2diff::encode(&values, 2);
        assert!(PackedColumn::ts2diff(&ts2diff::parse(&bytes).unwrap(), None).is_some());
        roundtrip(Encoding::Ts2DiffOrder2, &values);
    }

    #[test]
    fn negative_deltas_and_short_pages() {
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65] {
            let values: Vec<i64> = (0..len as i64).map(|i| 500 - i * 7 + (i % 3)).collect();
            roundtrip(Encoding::Ts2Diff, &values);
        }
    }

    #[test]
    fn wide_values_fall_back_to_serial() {
        let values = vec![i64::MIN, 0, i64::MAX, -1, 1];
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        assert!(!fits_32bit_path(&page, &DecodeOptions::default()));
        roundtrip(Encoding::Ts2Diff, &values);
    }

    #[test]
    fn decode_column_dispatches_all_encodings() {
        let values: Vec<i64> = (0..300).map(|i| 70 + (i % 13) - 5).collect();
        for enc in [
            Encoding::Plain,
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Rle,
            Encoding::DeltaRle,
            Encoding::Sprintz,
            Encoding::Rlbe,
            Encoding::Gorilla,
            Encoding::StreamVByte,
        ] {
            roundtrip(enc, &values);
        }
    }

    #[test]
    fn svb_vectorized_path_mixed_magnitudes() {
        // Deltas of one, two and three bytes — a four-byte delta alone
        // puts `rel_bound` past the gate — the three-byte ones sparse
        // enough to stay inside it.
        let mut values = vec![5_000_000i64];
        for i in 0..900usize {
            let step = match i % 50 {
                49 => -3_000_000,
                k => [3i64, -90, 9_000, 0, 250][k % 5],
            };
            values.push(values[i] + step);
        }
        let bytes = Encoding::StreamVByte.encode_i64(&values);
        assert!(svb_fits_32bit(&stream_vbyte::parse(&bytes).unwrap()));
        roundtrip(Encoding::StreamVByte, &values);
    }

    #[test]
    fn svb_wide_mode_falls_back_to_serial() {
        let values = vec![0i64, i64::MAX, i64::MIN, 17, -17];
        let bytes = Encoding::StreamVByte.encode_i64(&values);
        assert_eq!(stream_vbyte::parse(&bytes).unwrap().mode, 1);
        roundtrip(Encoding::StreamVByte, &values);
    }

    #[test]
    fn svb_large_rel_bound_falls_back_to_serial() {
        // Mode 0 (every zigzag delta fits u32) but cumulative magnitudes
        // exceed the 32-bit gate: rel_bound must reject the SIMD path and
        // the serial twin must still decode exactly.
        let values: Vec<i64> = (0..2000i64).map(|i| i * 2_000_000_000).collect();
        let bytes = Encoding::StreamVByte.encode_i64(&values);
        let page = stream_vbyte::parse(&bytes).unwrap();
        assert_eq!(page.mode, 0);
        assert!(page.rel_bound >= (1 << 30));
        roundtrip(Encoding::StreamVByte, &values);
    }

    #[test]
    fn sprintz_vectorized_path() {
        let values: Vec<i64> = (0..500)
            .map(|i| 100 + if i % 2 == 0 { i } else { -i })
            .collect();
        roundtrip(Encoding::Sprintz, &values);
    }
}
