//! Vectorized page decoding — Algorithm 1 end-to-end.
//!
//! The pipeline for a TS2DIFF page is:
//!
//! 1. **unpack** packed deltas into straight-order 32-bit lanes (the
//!    shuffle / srlv / and sequence of Figure 3, table-driven per §III-B);
//! 2. **add base** (`min_delta`) to every lane;
//! 3. **layout** — scatter a round of `n_v · 8` deltas so every SIMD lane
//!    holds a chain of `n_v` consecutive deltas (Figure 4(d));
//! 4. **accumulate** — partial sums + prefix permute + broadcast add
//!    (Algorithm 1 lines 10–15);
//! 5. then one of two endings: this module **widens** the 32-bit
//!    relative values to absolute `i64`s and writes the column
//!    ([`decode_column`], for row scans, joins, sketches and every
//!    aggregate that needs order), while [`crate::decode_fold`] runs
//!    steps 2–4 in registers and **compares and accumulates** instead,
//!    so a filtered SUM/COUNT/MIN/MAX/VARIANCE never materializes it.
//!
//! The 32-bit fast path requires every intermediate value to stay within
//! an `i32` offset of the page's first value; [`fits_32bit_path`] verifies
//! this from header statistics alone (width, base, count), falling back to
//! the serial decoder otherwise — the overflow discipline of §VI-C. The
//! Sprintz and Stream VByte decoders have the same gate, and
//! decode-and-fold shares all three.

use etsqp_encoding::ts2diff::Ts2DiffPage;
use etsqp_encoding::{delta_rle, rle, sprintz, stream_vbyte, ts2diff, Encoding};
use etsqp_simd::{scan, svb, transpose, unpack, LANES32};

use crate::cost::{choose_nv, CostConstants};
use crate::{Error, Result};

/// Decoding strategy for the Delta accumulation step — the ablation axis
/// of DESIGN.md ("chain layout" vs "straight scan").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaStrategy {
    /// Algorithm 1's chain layout: transpose + partial sums + one prefix.
    #[default]
    ChainLayout,
    /// One in-vector inclusive scan per 8 values (SBoost-style).
    StraightScan,
}

/// Tuning knobs for the vectorized decoder.
#[derive(Debug, Clone, Copy)]
pub struct DecodeOptions {
    /// Override `n_v`; `None` asks the Proposition 1 cost model.
    pub n_v: Option<usize>,
    /// Delta accumulation strategy.
    pub strategy: DeltaStrategy,
    /// Known (min, max) of the decoded values — page-header statistics.
    /// When present, the 32-bit fast path is gated on the *actual* value
    /// range instead of the conservative width-derived bound, which
    /// otherwise rejects wide packing widths on large pages.
    pub value_range: Option<(i64, i64)>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            n_v: None,
            strategy: DeltaStrategy::ChainLayout,
            value_range: None,
        }
    }
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

/// Decodes a parsed TS2DIFF page into `out` using the vectorized pipeline
/// when safe, the serial decoder otherwise. Returns the number of values.
pub fn decode_ts2diff(
    page: &Ts2DiffPage<'_>,
    opts: &DecodeOptions,
    out: &mut Vec<i64>,
) -> Result<usize> {
    out.clear();
    if page.count == 0 {
        return Ok(0);
    }
    if !fits_32bit_path(page, opts) {
        let bytes_header = rebuild_decode_serial(page)?;
        out.extend_from_slice(&bytes_header);
        return Ok(out.len());
    }
    out.reserve(page.count);
    let o = page.order as usize;
    for i in 0..o.min(page.count) {
        out.push(page.first[i]);
    }
    let n = page.num_deltas();
    if n == 0 {
        return Ok(out.len());
    }
    // Unpack all stored deltas (straight order) and add the base.
    let mut stored = vec![0u32; n];
    unpack::unpack_u32(page.payload, 0, page.width, &mut stored);
    let base32 = page.min_delta as u32; // wrapping two's complement
    for s in stored.iter_mut() {
        *s = s.wrapping_add(base32);
    }
    match page.order {
        1 => {
            let v0 = page.first[0];
            let mut rel = vec![0u32; n];
            accumulate_rel(&stored, 0, opts, &mut rel);
            let start = out.len();
            out.resize(start + n, 0);
            scan::widen_rel_i64(v0, &rel, &mut out[start..]);
        }
        _ => {
            // Pass A: delta-of-deltas → deltas (relative to d1).
            let d1 = page.first[1].wrapping_sub(page.first[0]);
            let mut deltas = vec![0u32; n];
            accumulate_rel(&stored, d1 as u32, opts, &mut deltas);
            // Pass B: deltas → values (relative to v1 = first[1]).
            let mut rel = vec![0u32; n];
            accumulate_rel(&deltas, 0, opts, &mut rel);
            let start = out.len();
            out.resize(start + n, 0);
            scan::widen_rel_i64(page.first[1], &rel, &mut out[start..]);
        }
    }
    Ok(out.len())
}

/// Inclusive prefix sum of `deltas` (u32 wrapping), seeded with `seed`,
/// written to `rel`. Uses the configured Delta strategy for full rounds
/// and a scalar tail.
fn accumulate_rel(deltas: &[u32], seed: u32, opts: &DecodeOptions, rel: &mut [u32]) {
    debug_assert_eq!(deltas.len(), rel.len());
    let mut carry = seed;
    match opts.strategy {
        DeltaStrategy::ChainLayout => {
            let n_v = opts
                .n_v
                .unwrap_or_else(|| choose_nv(10, 32, &CostConstants::default()));
            let n_v = if transpose::SUPPORTED_NV.contains(&n_v) {
                n_v
            } else {
                8
            };
            let round = n_v * LANES32;
            let mut vs = vec![[0u32; LANES32]; n_v];
            let mut pos = 0usize;
            while pos + round <= deltas.len() {
                transpose::layout_transpose(&deltas[pos..pos + round], &mut vs);
                scan::chain_delta_decode(&mut vs, &mut carry);
                transpose::layout_untranspose(&vs, &mut rel[pos..pos + round]);
                pos += round;
            }
            scalar_prefix(&deltas[pos..], &mut carry, &mut rel[pos..]);
        }
        DeltaStrategy::StraightScan => {
            let mut pos = 0usize;
            while pos + LANES32 <= deltas.len() {
                // Infallible: the loop condition guarantees LANES32
                // elements remain, so build the lane array by copy
                // instead of a panicking try_into conversion.
                let mut v = [0u32; LANES32];
                v.copy_from_slice(&deltas[pos..pos + LANES32]);
                scan::inclusive_scan_v32(&mut v, &mut carry);
                rel[pos..pos + LANES32].copy_from_slice(&v);
                pos += LANES32;
            }
            scalar_prefix(&deltas[pos..], &mut carry, &mut rel[pos..]);
        }
    }
}

fn scalar_prefix(deltas: &[u32], carry: &mut u32, rel: &mut [u32]) {
    let mut acc = *carry;
    for (r, &d) in rel.iter_mut().zip(deltas) {
        acc = acc.wrapping_add(d);
        *r = acc;
    }
    *carry = acc;
}

/// Serial fallback that re-serializes nothing: re-runs the reference
/// decoder over the original page image reconstructed from parts.
fn rebuild_decode_serial(page: &Ts2DiffPage<'_>) -> Result<Vec<i64>> {
    // The reference decoder works from bytes; rebuild a minimal image.
    let mut values = Vec::with_capacity(page.count);
    let o = page.order as usize;
    for i in 0..o.min(page.count) {
        values.push(page.first[i]);
    }
    let mut r = etsqp_encoding::bitio::BitReader::new(page.payload);
    match page.order {
        1 => {
            let mut prev = page.first[0];
            for _ in 0..page.num_deltas() {
                let stored = r
                    .read_bits(page.width)
                    .ok_or(Error::Decode("ts2diff payload"))?;
                prev = prev.wrapping_add(page.min_delta.wrapping_add(stored as i64));
                values.push(prev);
            }
        }
        _ => {
            let mut prev = page.first[1];
            let mut prev_d = page.first[1].wrapping_sub(page.first[0]);
            for _ in 0..page.num_deltas() {
                let stored = r
                    .read_bits(page.width)
                    .ok_or(Error::Decode("ts2diff payload"))?;
                prev_d = prev_d.wrapping_add(page.min_delta.wrapping_add(stored as i64));
                prev = prev.wrapping_add(prev_d);
                values.push(prev);
            }
        }
    }
    Ok(values)
}

/// Decodes any integer-encoded column into `out`, using the vectorized
/// TS2DIFF pipeline where it applies and the serial reference decoders
/// otherwise.
pub fn decode_column(
    encoding: Encoding,
    bytes: &[u8],
    opts: &DecodeOptions,
    out: &mut Vec<i64>,
) -> Result<usize> {
    match encoding {
        Encoding::Ts2Diff | Encoding::Ts2DiffOrder2 => {
            let page = ts2diff::parse(bytes).map_err(Error::Encoding)?;
            decode_ts2diff(&page, opts, out)
        }
        Encoding::DeltaRle => {
            let decoded = delta_rle::decode(bytes).map_err(Error::Encoding)?;
            *out = decoded;
            Ok(out.len())
        }
        Encoding::Rle => {
            let decoded = rle::decode(bytes).map_err(Error::Encoding)?;
            *out = decoded;
            Ok(out.len())
        }
        Encoding::Sprintz => {
            let page = sprintz::parse(bytes).map_err(Error::Encoding)?;
            decode_sprintz(&page, opts, out)
        }
        Encoding::StreamVByte => {
            let page = stream_vbyte::parse(bytes).map_err(Error::Encoding)?;
            decode_svb(&page, opts, out)
        }
        other => {
            let decoded = other.decode_i64(bytes).map_err(Error::Encoding)?;
            *out = decoded;
            Ok(out.len())
        }
    }
}

/// Vectorized Sprintz decode: unpack ZigZag deltas, un-ZigZag lane-wise,
/// then the same accumulate pipeline as TS2DIFF.
pub fn decode_sprintz(
    page: &sprintz::SprintzPage<'_>,
    opts: &DecodeOptions,
    out: &mut Vec<i64>,
) -> Result<usize> {
    out.clear();
    if page.count == 0 {
        return Ok(0);
    }
    let n = page.count - 1;
    if !sprintz_fits_32bit(page) {
        let decoded = sprintz::decode_from_parts(page).map_err(Error::Encoding)?;
        *out = decoded;
        return Ok(out.len());
    }
    out.reserve(page.count);
    out.push(page.first);
    if n == 0 {
        return Ok(1);
    }
    let mut zz = vec![0u32; n];
    unpack::unpack_u32(page.payload, 0, page.width, &mut zz);
    // Un-ZigZag in 32-bit lanes: (z >> 1) ^ −(z & 1).
    for z in zz.iter_mut() {
        *z = (*z >> 1) ^ (*z & 1).wrapping_neg();
    }
    let mut rel = vec![0u32; n];
    accumulate_rel(&zz, 0, opts, &mut rel);
    out.resize(1 + n, 0);
    scan::widen_rel_i64(page.first, &rel, &mut out[1..]);
    Ok(out.len())
}

/// Vectorized Stream VByte decode: shuffle-table quad decode of the
/// ZigZag'd deltas (4 values per `pshufb`), un-ZigZag lane-wise, then the
/// same accumulate pipeline as TS2DIFF/Sprintz.
///
/// Pages [`svb_fits_32bit`] rejects fall back to the serial reference
/// decoder.
pub fn decode_svb(
    page: &stream_vbyte::SvbPage<'_>,
    opts: &DecodeOptions,
    out: &mut Vec<i64>,
) -> Result<usize> {
    out.clear();
    if page.count == 0 {
        return Ok(0);
    }
    if !svb_fits_32bit(page) {
        let decoded = stream_vbyte::decode_from_parts(page).map_err(Error::Encoding)?;
        *out = decoded;
        return Ok(out.len());
    }
    out.reserve(page.count);
    out.push(page.first);
    let n = page.num_deltas();
    if n == 0 {
        return Ok(1);
    }
    let mut zz = vec![0u32; n];
    // The parser validated that `data` holds every declared byte, so the
    // quad kernel may use the full remaining slice as its load window.
    let used = svb::decode_quads(page.controls, page.data, n, &mut zz);
    debug_assert_eq!(used, page.data_len);
    // Un-ZigZag in 32-bit lanes: (z >> 1) ^ −(z & 1).
    for z in zz.iter_mut() {
        *z = (*z >> 1) ^ (*z & 1).wrapping_neg();
    }
    let mut rel = vec![0u32; n];
    accumulate_rel(&zz, 0, opts, &mut rel);
    out.resize(1 + n, 0);
    scan::widen_rel_i64(page.first, &rel, &mut out[1..]);
    Ok(out.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::ts2diff;

    fn roundtrip(values: &[i64], order: u8, opts: &DecodeOptions) {
        let bytes = ts2diff::encode(values, order);
        let page = ts2diff::parse(&bytes).unwrap();
        let mut out = Vec::new();
        decode_ts2diff(&page, opts, &mut out).unwrap();
        assert_eq!(out, values, "order {order} opts {opts:?}");
    }

    #[test]
    fn vectorized_matches_reference_order1() {
        let values: Vec<i64> = (0..1000).map(|i| 10_000 + i * 3 + (i % 11)).collect();
        for nv in [None, Some(1), Some(2), Some(4), Some(8)] {
            roundtrip(
                &values,
                1,
                &DecodeOptions {
                    n_v: nv,
                    strategy: DeltaStrategy::ChainLayout,
                    ..Default::default()
                },
            );
        }
        roundtrip(
            &values,
            1,
            &DecodeOptions {
                n_v: None,
                strategy: DeltaStrategy::StraightScan,
                ..Default::default()
            },
        );
    }

    #[test]
    fn vectorized_matches_reference_order2() {
        let values: Vec<i64> = (0..777i64)
            .map(|i| 1_000_000 + i * 50 + (i * i) % 23)
            .collect();
        for strategy in [DeltaStrategy::ChainLayout, DeltaStrategy::StraightScan] {
            roundtrip(
                &values,
                2,
                &DecodeOptions {
                    n_v: None,
                    strategy,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn negative_deltas_and_short_pages() {
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65] {
            let values: Vec<i64> = (0..len as i64).map(|i| 500 - i * 7 + (i % 3)).collect();
            roundtrip(&values, 1, &DecodeOptions::default());
        }
    }

    #[test]
    fn wide_values_fall_back_to_serial() {
        let values = vec![i64::MIN, 0, i64::MAX, -1, 1];
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        assert!(!fits_32bit_path(&page, &DecodeOptions::default()));
        let mut out = Vec::new();
        decode_ts2diff(&page, &DecodeOptions::default(), &mut out).unwrap();
        assert_eq!(out, values);
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
            let bytes = enc.encode_i64(&values);
            let mut out = Vec::new();
            decode_column(enc, &bytes, &DecodeOptions::default(), &mut out).unwrap();
            assert_eq!(out, values, "{}", enc.name());
        }
    }

    #[test]
    fn svb_vectorized_path_mixed_magnitudes() {
        // Deltas spanning all four control-byte length classes.
        let mut values = vec![5_000_000i64];
        for (i, step) in [3i64, -90, 40_000, -7_000_000, 0, 250]
            .iter()
            .cycle()
            .take(900)
            .enumerate()
        {
            values.push(values[i] + step);
        }
        let bytes = Encoding::StreamVByte.encode_i64(&values);
        let page = stream_vbyte::parse(&bytes).unwrap();
        assert_eq!(page.mode, 0);
        let mut out = Vec::new();
        decode_svb(&page, &DecodeOptions::default(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn svb_wide_mode_falls_back_to_serial() {
        let values = vec![0i64, i64::MAX, i64::MIN, 17, -17];
        let bytes = Encoding::StreamVByte.encode_i64(&values);
        let page = stream_vbyte::parse(&bytes).unwrap();
        assert_eq!(page.mode, 1);
        let mut out = Vec::new();
        decode_svb(&page, &DecodeOptions::default(), &mut out).unwrap();
        assert_eq!(out, values);
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
        let mut out = Vec::new();
        decode_svb(&page, &DecodeOptions::default(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn sprintz_vectorized_path() {
        let values: Vec<i64> = (0..500)
            .map(|i| 100 + if i % 2 == 0 { i } else { -i })
            .collect();
        let bytes = Encoding::Sprintz.encode_i64(&values);
        let mut out = Vec::new();
        decode_column(
            Encoding::Sprintz,
            &bytes,
            &DecodeOptions::default(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, values);
    }
}
