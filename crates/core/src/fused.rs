//! Operator fusion: aggregation **without decoding** (paper §IV).
//!
//! Two fusion families:
//!
//! * **Delta fusion** (TS2DIFF): `Σ v_k = n·v₀ + Σ_j (n−j)·δ_j` — the sum
//!   needs only the *unpacked* deltas with position weights; the Delta
//!   accumulation (and any materialization) is skipped entirely. This is
//!   the `3X₀+3D₁+3D₂+2D₃+D₄+12·base` identity of Example 2.
//! * **Delta–Repeat fusion** (Delta-RLE): per `(Δ, r)` pair the run is an
//!   arithmetic progression, so `Σ = r·a_n + Δ·r(r+1)/2`, `Σ A² ` and
//!   `Σ A·B` are degree-2/3 polynomials (the §IV expansion), and COUNT
//!   within a time range needs no decoding at all. Proposition 3's
//!   incremental `f·g` shape: `a_n` is carried across pairs.
//!
//! [`FuseLevel`] grades how many decoders are fused — the ablation axis of
//! Figure 14(a).

use etsqp_encoding::delta_rle::DeltaRlePage;
use etsqp_encoding::stream_vbyte::SvbPage;
use etsqp_encoding::ts2diff::Ts2DiffPage;
use etsqp_simd::agg::AggState;
use etsqp_simd::{svb, unpack};

use crate::decode::{decode_svb, decode_ts2diff, DecodeOptions};
use crate::{Error, Result};

/// How many decoders the aggregation is fused across (Figure 14(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FuseLevel {
    /// Decode everything (unpack + flatten + accumulate), then aggregate.
    None,
    /// Fuse the aggregation with the Delta decoder: aggregate from
    /// unpacked deltas, skipping accumulation.
    Delta,
    /// Fuse across Delta *and* Repeat: aggregate from `(Δ, run)` pairs,
    /// skipping both flattening and accumulation.
    DeltaRepeat,
}

/// The closed form all three delta fusions share: with
/// `v_k = v₀ + Σ_{j<k} δ_j` (delta `j` connects value `j` to `j+1`),
/// `Σ_{k=a..=b} v_k = (b−a+1)·v₀ + Σ_{j<b} w_j·δ_j`, where delta `j` is
/// counted once per covered value above it: `w_j = b − max(j+1, a) + 1`.
/// Over a whole page (`a = 0`) that is the `3X₀+3D₁+3D₂+2D₃+D₄+12·base`
/// identity of Example 2. MIN/MAX/Σx² still require values and stay
/// unset (callers needing them decode — see [`FuseLevel::None`]).
fn weighted_delta_sum(v0: i64, a: usize, b: usize, deltas: impl Iterator<Item = i128>) -> AggState {
    let len = (b - a + 1) as i128;
    let mut sum = len * v0 as i128;
    for (j, d) in deltas.take(b).enumerate() {
        sum += (b + 1 - (j + 1).max(a)) as i128 * d;
    }
    AggState {
        sum,
        count: len as u64,
        ..AggState::new()
    }
}

/// The one fallback for pages whose stored deltas are not plain
/// first-order differences: decode, then aggregate `[a, b]`.
fn decoded_range_state(
    a: usize,
    b: usize,
    decode: impl FnOnce(&mut Vec<i64>) -> Result<usize>,
) -> Result<AggState> {
    let mut out = Vec::new();
    decode(&mut out)?;
    let mut state = AggState::new();
    state.push_slice(out.get(a..=b).ok_or(Error::Decode(
        "decoded column shorter than its header count",
    ))?);
    Ok(state)
}

/// SUM over all values of a TS2DIFF (order-1) page without Delta
/// decoding: [`sum_ts2diff_range`] over the whole page.
///
/// ```
/// use etsqp_core::{decode::DecodeOptions, fused::sum_ts2diff};
/// let bytes = etsqp_encoding::ts2diff::encode(&[10, 20, 30, 40], 1);
/// let page = etsqp_encoding::ts2diff::parse(&bytes).unwrap();
/// let state = sum_ts2diff(&page, &DecodeOptions::default()).unwrap();
/// assert_eq!(state.sum, 100);
/// ```
pub fn sum_ts2diff(page: &Ts2DiffPage<'_>, opts: &DecodeOptions) -> Result<AggState> {
    sum_ts2diff_range(page, 0, page.count.saturating_sub(1), opts)
}

/// SUM over all values of a Stream VByte page without prefix summing:
/// the quad-shuffle decode yields the zigzag'd deltas `δ_j` directly and
/// they feed the same weighted sum as TS2DIFF's bit-packed ones.
///
/// ```
/// use etsqp_core::{decode::DecodeOptions, fused::sum_svb};
/// let bytes = etsqp_encoding::stream_vbyte::encode(&[10, 20, 30, 40]);
/// let page = etsqp_encoding::stream_vbyte::parse(&bytes).unwrap();
/// let state = sum_svb(&page, &DecodeOptions::default()).unwrap();
/// assert_eq!(state.sum, 100);
/// ```
///
/// Wide-mode pages (mode 1: some delta's zigzag exceeded 32 bits) fall
/// back to decode-then-sum — the closed form needs every stored delta to
/// be the exact difference, which only mode 0 pages written under the
/// planner's `spread_fits_i64` gate guarantee.
pub fn sum_svb(page: &SvbPage<'_>, opts: &DecodeOptions) -> Result<AggState> {
    if page.count == 0 {
        return Ok(AggState::new());
    }
    let b = page.count - 1;
    if page.mode != 0 {
        return decoded_range_state(0, b, |out| decode_svb(page, opts, out));
    }
    let mut zz = vec![0u32; page.num_deltas()];
    let used = svb::decode_quads(page.controls, page.data, zz.len(), &mut zz);
    debug_assert_eq!(used, page.data_len);
    // δ_j un-zigzags in the 64-bit domain exactly (mode 0 means every
    // zigzag fit 32 bits).
    let deltas = zz
        .iter()
        .map(|&z| etsqp_encoding::zigzag::decode_zigzag(z as u64) as i128);
    Ok(weighted_delta_sum(page.first, 0, b, deltas))
}

/// SUM over the value-index range `[a, b]` (inclusive, `b` clipped to the
/// page) of a TS2DIFF (order-1) page without Delta decoding:
/// `δ_j = base + s_j` over the unpacked stored deltas `s_j`.
///
/// Order-2 pages fall back to decode-then-sum (double accumulation makes
/// the closed form cubic; the paper fuses single-Delta formats).
pub fn sum_ts2diff_range(
    page: &Ts2DiffPage<'_>,
    a: usize,
    b: usize,
    opts: &DecodeOptions,
) -> Result<AggState> {
    if page.count == 0 || a > b || a >= page.count {
        return Ok(AggState::new());
    }
    let b = b.min(page.count - 1);
    if page.order != 1 {
        return decoded_range_state(a, b, |out| decode_ts2diff(page, opts, out));
    }
    // Unpack the stored deltas below `b` (SIMD) — the only decoder we
    // keep. Widths up to 64 bits occur whenever the delta spread exceeds
    // 2³², so the 64-bit unpacker is required (unpack_u32 asserts width
    // ≤ 32).
    let mut stored = vec![0u64; b];
    unpack::unpack_u64(page.payload, 0, page.width, &mut stored);
    let base = page.min_delta as i128;
    let deltas = stored.iter().map(|&s| base + s as i128);
    Ok(weighted_delta_sum(page.first[0], a, b, deltas))
}

/// Full aggregate state over a Delta-RLE page without flattening or
/// accumulation: SUM/COUNT/MIN/MAX/Σx² from `(Δ, run)` pairs.
pub fn aggregate_delta_rle(page: &DeltaRlePage<'_>) -> Result<AggState> {
    let mut state = AggState::new();
    if page.count == 0 {
        return Ok(state);
    }
    state.push(page.first);
    let mut a = page.first as i128; // running value a_n (Proposition 3 carry)
    for (delta, run) in page.pairs() {
        let r = run as i128;
        let d = delta as i128;
        // Σ_{i=1..r} (a + iΔ) = r·a + Δ·r(r+1)/2. Hostile headers can
        // push the carry far outside i64; saturate like sum_sq below
        // instead of tripping debug overflow checks.
        let tri = r * (r + 1) / 2;
        state.sum = state
            .sum
            .saturating_add(r.saturating_mul(a).saturating_add(d.saturating_mul(tri)));
        // Σ (a + iΔ)² = r·a² + 2aΔ·tri + Δ²·Σi² ; Σi² = r(r+1)(2r+1)/6.
        // Second-order terms saturate like AggState::sum_sq does.
        let sq = r * (r + 1) * (2 * r + 1) / 6;
        state.sum_sq = state.sum_sq.saturating_add(
            r.saturating_mul(a.saturating_mul(a))
                .saturating_add((2 * a).saturating_mul(d.saturating_mul(tri)))
                .saturating_add(d.saturating_mul(d).saturating_mul(sq)),
        );
        state.count = state.count.saturating_add(run);
        // The run is monotonic: extremes are its endpoints.
        let end = a + d * r;
        let first_of_run = a + d;
        let (lo, hi) = if d >= 0 {
            (first_of_run, end)
        } else {
            (end, first_of_run)
        };
        let lo = i128_to_i64(lo)?;
        let hi = i128_to_i64(hi)?;
        state.min = Some(state.min.map_or(lo, |m| m.min(lo)));
        state.max = Some(state.max.map_or(hi, |m| m.max(hi)));
        a = end;
    }
    // `state.push(page.first)` above left `last` at the page's *first*
    // value; LAST must track the running carry through every run.
    // Regression: differential oracle case
    // `spec=Atm codec=DeltaRle fuse=DeltaRepeat query=LAST(all)`.
    state.last = Some(i128_to_i64(a)?);
    Ok(state)
}

/// `Σ A_i·B_i` over two aligned Delta-RLE pages (same timestamps) — the
/// §IV polynomial `valid·AₙBₙ + Aₙ·Σ(iΔB) + Bₙ·Σ(iΔA) + ΣI²·ΔA·ΔB`,
/// applied per overlapping run fragment; feeds covariance/correlation.
pub fn dot_product_delta_rle(a: &DeltaRlePage<'_>, b: &DeltaRlePage<'_>) -> Result<i128> {
    if a.count != b.count {
        return Err(Error::Plan("dot product needs aligned pages".into()));
    }
    if a.count == 0 {
        return Ok(0);
    }
    let mut total: i128 = a.first as i128 * b.first as i128;
    let mut pa = a.pairs();
    let mut pb = b.pairs();
    let (mut da, mut ra) = pa.next().unwrap_or((0, 0));
    let (mut db, mut rb) = pb.next().unwrap_or((0, 0));
    let mut va = a.first as i128;
    let mut vb = b.first as i128;
    loop {
        if ra == 0 {
            match pa.next() {
                Some((d, r)) => {
                    da = d;
                    ra = r;
                }
                None => break,
            }
            continue;
        }
        if rb == 0 {
            match pb.next() {
                Some((d, r)) => {
                    db = d;
                    rb = r;
                }
                None => break,
            }
            continue;
        }
        // Aggregate min(ra, rb) tuples in closed form (the paper's
        // `valid ≤ min(RLE₁, RLE₂)` fragmenting).
        let valid = ra.min(rb) as i128;
        let (dai, dbi) = (da as i128, db as i128);
        let tri = valid * (valid + 1) / 2;
        let sq = valid * (valid + 1) * (2 * valid + 1) / 6;
        total = total.saturating_add(
            valid
                .saturating_mul(va)
                .saturating_mul(vb)
                .saturating_add(va.saturating_mul(dbi).saturating_mul(tri))
                .saturating_add(vb.saturating_mul(dai).saturating_mul(tri))
                .saturating_add(dai.saturating_mul(dbi).saturating_mul(sq)),
        );
        va = va.saturating_add(dai.saturating_mul(valid));
        vb = vb.saturating_add(dbi.saturating_mul(valid));
        ra -= valid as u64;
        rb -= valid as u64;
    }
    Ok(total)
}

/// COUNT of tuples whose *timestamp* falls in `[t_lo, t_hi]`, computed
/// from a Delta-RLE-encoded timestamp page without decoding: within a run
/// the timestamps form an arithmetic progression, so the count per run is
/// solved directly (Figure 12(c-d)'s "directly counting the satisfied
/// tuples").
pub fn count_in_range_delta_rle(page: &DeltaRlePage<'_>, t_lo: i64, t_hi: i64) -> u64 {
    if page.count == 0 || t_lo > t_hi {
        return 0;
    }
    let mut count = 0u64;
    let mut t = page.first as i128;
    if t >= t_lo as i128 && t <= t_hi as i128 {
        count = count.saturating_add(1);
    }
    for (delta, run) in page.pairs() {
        let d = delta as i128;
        let r = run as i128;
        // Values t + i·d for i in 1..=r.
        let (lo, hi) = (t_lo as i128, t_hi as i128);
        count = count.saturating_add(count_progression_in_range(t, d, r, lo, hi));
        t = t.saturating_add(d.saturating_mul(r));
    }
    count
}

/// Number of i in `1..=r` with `lo <= t0 + i·d <= hi`.
fn count_progression_in_range(t0: i128, d: i128, r: i128, lo: i128, hi: i128) -> u64 {
    if r <= 0 {
        return 0;
    }
    if d == 0 {
        return if t0 >= lo && t0 <= hi { r as u64 } else { 0 };
    }
    // Solve lo ≤ t0 + i·d ≤ hi for i.
    let (i_min, i_max) = if d > 0 {
        (div_ceil(lo - t0, d), div_floor(hi - t0, d))
    } else {
        (div_ceil(hi - t0, d), div_floor(lo - t0, d))
    };
    let i_min = i_min.max(1);
    let i_max = i_max.min(r);
    if i_max >= i_min {
        (i_max - i_min + 1) as u64
    } else {
        0
    }
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

fn i128_to_i64(v: i128) -> Result<i64> {
    i64::try_from(v).map_err(|_| Error::Overflow)
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
    fn fused_range_sum_matches_slice_sum() {
        let values: Vec<i64> = (0..300).map(|i| 40 + i * 2 - (i % 5)).collect();
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        for (a, b) in [
            (0usize, 299usize),
            (0, 0),
            (10, 10),
            (5, 250),
            (250, 299),
            (299, 299),
            (100, 9999),
        ] {
            let got = sum_ts2diff_range(&page, a, b, &DecodeOptions::default()).unwrap();
            let hi = b.min(values.len() - 1);
            let want: i128 = values[a..=hi].iter().map(|&v| v as i128).sum();
            assert_eq!(got.sum, want, "range [{a}, {b}]");
            assert_eq!(got.count, (hi - a + 1) as u64);
        }
        // Degenerate: a beyond the page.
        let empty = sum_ts2diff_range(&page, 500, 600, &DecodeOptions::default()).unwrap();
        assert_eq!(empty.count, 0);
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

    #[test]
    fn dot_product_matches_naive() {
        let n = 200usize;
        let a_vals: Vec<i64> = (0..n as i64).map(|i| 10 + i / 7).collect();
        let b_vals: Vec<i64> = (0..n as i64).map(|i| 500 - i / 3).collect();
        let pa_bytes = delta_rle::encode(&a_vals);
        let pb_bytes = delta_rle::encode(&b_vals);
        let pa = delta_rle::parse(&pa_bytes).unwrap();
        let pb = delta_rle::parse(&pb_bytes).unwrap();
        let got = dot_product_delta_rle(&pa, &pb).unwrap();
        let want: i128 = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(&a, &b)| a as i128 * b as i128)
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn count_in_range_matches_filtered_count() {
        let ts: Vec<i64> = (0..500).map(|i| 1000 + i * 10 + (i / 100)).collect();
        let bytes = delta_rle::encode(&ts);
        let page = delta_rle::parse(&bytes).unwrap();
        for (lo, hi) in [
            (0, 100),
            (1500, 3000),
            (1000, 1000),
            (5990, 6010),
            (9000, 1),
        ] {
            let got = count_in_range_delta_rle(&page, lo, hi);
            let want = ts.iter().filter(|&&t| t >= lo && t <= hi).count() as u64;
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn count_in_range_descending_timeline_values() {
        // Negative deltas (a descending value series used as filter input).
        let vals: Vec<i64> = (0..300).map(|i| 10_000 - i * 7).collect();
        let bytes = delta_rle::encode(&vals);
        let page = delta_rle::parse(&bytes).unwrap();
        let got = count_in_range_delta_rle(&page, 8000, 9000);
        let want = vals.iter().filter(|&&v| (8000..=9000).contains(&v)).count() as u64;
        assert_eq!(got, want);
    }

    #[test]
    fn progression_count_edge_cases() {
        // d = 0 inside/outside.
        assert_eq!(count_progression_in_range(5, 0, 10, 0, 10), 10);
        assert_eq!(count_progression_in_range(50, 0, 10, 0, 10), 0);
        // Exact boundary hits.
        assert_eq!(count_progression_in_range(0, 10, 5, 10, 50), 5);
        assert_eq!(count_progression_in_range(0, 10, 5, 11, 49), 3);
    }
}
