//! AVX2 implementations of the unpack / delta / filter / aggregate kernels.
//!
//! Instruction mapping to the paper (§II-B, Figure 3):
//! * byte gathering across lanes — `_mm256_shuffle_epi8`
//! * per-lane variable right shift — `_mm256_srlv_epi32` / `_mm256_srlv_epi64`
//! * value masking — `_mm256_and_si256`
//! * prefix-sum permutations — `_mm256_permutevar8x32_epi32`
//!
//! Every public function here is `unsafe` and requires the caller to have
//! verified AVX2 support (done once by [`crate::backend`]) and, for the
//! unpack kernels, that all window loads are in bounds (done by
//! [`crate::unpack`]). Register-only helpers are safe `#[target_feature]`
//! functions; the remaining `unsafe` blocks are scoped to the pointer
//! loads and stores they justify.

#![cfg(target_arch = "x86_64")]

use crate::agg::{DeltaXform, RelFold, FOLD_BLOCK};
use crate::scalar::BlockAcc;
use crate::tables::{Plan32, Plan64};
use crate::{LANES32, V32};
use std::arch::x86_64::*;

/// Unpacks `rounds * 8` values via a [`Plan32`] (widths 1..=25).
///
/// # Safety
/// AVX2 must be available. For every round `r < rounds`, the bytes
/// `src[start_byte + r*w + plan.win1_off .. + 16]` must be in bounds, and
/// `out` must hold at least `rounds * 8` values.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_u32_plan32(
    src: &[u8],
    start_byte: usize,
    rounds: usize,
    plan: &Plan32,
    out: &mut [u32],
) {
    debug_assert!(out.len() >= rounds * LANES32);
    // SAFETY: the fn-level contract keeps every 16-byte window load of
    // every round inside `src` and sizes `out` for `rounds * 8` values;
    // the plan tables are fixed-size arrays read in full.
    unsafe {
        let shuf_lo = _mm_loadu_si128(plan.shuffle_lo.as_ptr() as *const __m128i);
        let shuf_hi = _mm_loadu_si128(plan.shuffle_hi.as_ptr() as *const __m128i);
        let shuffle = _mm256_set_m128i(shuf_hi, shuf_lo);
        let shifts = _mm256_loadu_si256(plan.shifts.as_ptr() as *const __m256i);
        let mask = _mm256_set1_epi32(plan.mask as i32);
        let w = plan.bytes_per_round;
        let mut base = start_byte;
        let mut optr = out.as_mut_ptr();
        for _ in 0..rounds {
            let lo = _mm_loadu_si128(src.as_ptr().add(base) as *const __m128i);
            let hi = _mm_loadu_si128(src.as_ptr().add(base + plan.win1_off) as *const __m128i);
            let v = _mm256_set_m128i(hi, lo);
            let gathered = _mm256_shuffle_epi8(v, shuffle);
            let shifted = _mm256_srlv_epi32(gathered, shifts);
            let vals = _mm256_and_si256(shifted, mask);
            _mm256_storeu_si256(optr as *mut __m256i, vals);
            base += w;
            optr = optr.add(LANES32);
        }
    }
}

/// Unpacks `rounds * 8` values via a [`Plan64`] into 32-bit outputs
/// (widths 26..=32, where values can span five bytes).
///
/// # Safety
/// AVX2 must be available; all four 16-byte windows of every round must be
/// in bounds (`src[start_byte + r*w + win_off[k] .. + 16]`), and `out`
/// must hold at least `rounds * 8` values.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_u32_plan64(
    src: &[u8],
    start_byte: usize,
    rounds: usize,
    plan: &Plan64,
    out: &mut [u32],
) {
    debug_assert!(out.len() >= rounds * LANES32);
    let mut buf = [0u64; 8];
    let mut base = start_byte;
    for r in 0..rounds {
        // SAFETY: the fn-level window contract covers this round's
        // loads, and `r * LANES32 + i < rounds * LANES32 <= out.len()`
        // keeps the unchecked store in bounds.
        unsafe {
            unpack_round_plan64(src, base, plan, &mut buf);
            for (i, &v) in buf.iter().enumerate() {
                *out.get_unchecked_mut(r * LANES32 + i) = v as u32;
            }
        }
        base += plan.bytes_per_round;
    }
}

/// Unpacks `rounds * 8` values via a [`Plan64`] into 64-bit outputs
/// (widths up to 57 — wide timestamp deltas).
///
/// # Safety
/// Same window-bounds contract as [`unpack_u32_plan64`].
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_u64_plan64(
    src: &[u8],
    start_byte: usize,
    rounds: usize,
    plan: &Plan64,
    out: &mut [u64],
) {
    debug_assert!(out.len() >= rounds * LANES32);
    let mut base = start_byte;
    for chunk in out.chunks_exact_mut(8).take(rounds) {
        // SAFETY: the fn-level window contract covers this round's loads,
        // and `chunks_exact_mut(8)` yields exactly eight-element slices.
        unsafe { unpack_round_plan64(src, base, plan, chunk) };
        base += plan.bytes_per_round;
    }
}

/// One eight-value round of the Plan64 unpack: two 256-bit
/// shuffle/shift/mask pipelines over four 16-byte source windows.
///
/// # Safety
/// AVX2 must be available; all four windows
/// `src[base + plan.win_off[k] .. + 16]` must be in bounds, and `out`
/// must hold exactly eight elements.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn unpack_round_plan64(src: &[u8], base: usize, plan: &Plan64, out: &mut [u64]) {
    debug_assert_eq!(out.len(), 8);
    // SAFETY: the four window loads are in bounds per the fn contract;
    // shuffle/shift tables are fixed-size arrays read in full; the two
    // stores exactly cover the 8-element `out` array (lanes 0..4, 4..8).
    unsafe {
        let mask = _mm256_set1_epi64x(plan.mask as i64);
        // Vector A: values 0..4 from windows 0 and 1.
        let a_lo = _mm_loadu_si128(src.as_ptr().add(base + plan.win_off[0]) as *const __m128i);
        let a_hi = _mm_loadu_si128(src.as_ptr().add(base + plan.win_off[1]) as *const __m128i);
        let sa_lo = _mm_loadu_si128(plan.shuffle_a[0].as_ptr() as *const __m128i);
        let sa_hi = _mm_loadu_si128(plan.shuffle_a[1].as_ptr() as *const __m128i);
        let va = _mm256_set_m128i(a_hi, a_lo);
        let sa = _mm256_set_m128i(sa_hi, sa_lo);
        let ga = _mm256_shuffle_epi8(va, sa);
        let sha = _mm256_loadu_si256(plan.shifts_a.as_ptr() as *const __m256i);
        let ra = _mm256_and_si256(_mm256_srlv_epi64(ga, sha), mask);
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, ra);
        // Vector B: values 4..8 from windows 2 and 3.
        let b_lo = _mm_loadu_si128(src.as_ptr().add(base + plan.win_off[2]) as *const __m128i);
        let b_hi = _mm_loadu_si128(src.as_ptr().add(base + plan.win_off[3]) as *const __m128i);
        let sb_lo = _mm_loadu_si128(plan.shuffle_b[0].as_ptr() as *const __m128i);
        let sb_hi = _mm_loadu_si128(plan.shuffle_b[1].as_ptr() as *const __m128i);
        let vb = _mm256_set_m128i(b_hi, b_lo);
        let sb = _mm256_set_m128i(sb_hi, sb_lo);
        let gb = _mm256_shuffle_epi8(vb, sb);
        let shb = _mm256_loadu_si256(plan.shifts_b.as_ptr() as *const __m256i);
        let rb = _mm256_and_si256(_mm256_srlv_epi64(gb, shb), mask);
        _mm256_storeu_si256(out.as_mut_ptr().add(4) as *mut __m256i, rb);
    }
}

/// Shifts the eight 32-bit lanes of `v` left by `N` lane positions,
/// filling with zeros — built from `permutevar8x32` plus a zeroing blend,
/// the building block of the prefix-sum step (Algorithm 1 line 13).
/// Register-only, hence a safe `#[target_feature]` function.
#[target_feature(enable = "avx2")]
#[inline]
fn lane_shift_left<const N: i32>(v: __m256i) -> __m256i {
    let idx = _mm256_setr_epi32(0 - N, 1 - N, 2 - N, 3 - N, 4 - N, 5 - N, 6 - N, 7 - N);
    let permuted = _mm256_permutevar8x32_epi32(v, _mm256_and_si256(idx, _mm256_set1_epi32(7)));
    // Zero the first N lanes: lane i is kept when i >= N.
    let keep = _mm256_cmpgt_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(N - 1),
    );
    _mm256_and_si256(permuted, keep)
}

/// Inclusive prefix scan across the eight lanes of one vector (wrapping),
/// seeded by `carry`; returns the scanned vector and the new carry.
#[target_feature(enable = "avx2")]
#[inline]
fn scan_vector(v: __m256i, carry: u32) -> (__m256i, u32) {
    let mut x = v;
    x = _mm256_add_epi32(x, lane_shift_left::<1>(x));
    x = _mm256_add_epi32(x, lane_shift_left::<2>(x));
    x = _mm256_add_epi32(x, lane_shift_left::<4>(x));
    let x = _mm256_add_epi32(x, _mm256_set1_epi32(carry as i32));
    let mut lanes = [0u32; 8];
    // SAFETY: `lanes` is a local array of exactly eight u32 lanes — a
    // valid 256-bit store target.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, x) };
    (x, lanes[7])
}

/// AVX2 version of [`crate::scalar::inclusive_scan_v32`].
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn inclusive_scan_v32(v: &mut V32, carry: &mut u32) {
    // SAFETY: `v` is exactly eight u32 lanes — a valid 256-bit load and
    // store target.
    let x = unsafe { _mm256_loadu_si256(v.as_ptr() as *const __m256i) };
    let (scanned, c) = scan_vector(x, *carry);
    // SAFETY: same eight-lane target as the load above.
    unsafe { _mm256_storeu_si256(v.as_mut_ptr() as *mut __m256i, scanned) };
    *carry = c;
}

/// AVX2 version of [`crate::scalar::chain_delta_decode`]: Algorithm 1
/// lines 10–15 (partial sums, prefix-sum permute, broadcast add).
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn chain_delta_decode(vs: &mut [V32], carry: &mut u32) {
    let n_v = vs.len();
    if n_v == 0 {
        return;
    }
    // Lines 11-12: partial sums.
    let mut regs = [_mm256_setzero_si256(); 8];
    debug_assert!(n_v <= 8, "layout uses at most 8 vectors");
    for (j, v) in vs.iter().enumerate() {
        // SAFETY: each `v` is exactly eight u32 lanes.
        regs[j] = unsafe { _mm256_loadu_si256(v.as_ptr() as *const __m256i) };
        if j > 0 {
            regs[j] = _mm256_add_epi32(regs[j], regs[j - 1]);
        }
    }
    // Line 13: exclusive scan of the chain totals across lanes.
    let totals = regs[n_v - 1];
    let (incl, new_carry) = scan_vector(totals, *carry);
    // exclusive = inclusive shifted right by one lane, seeded with carry.
    let shifted = lane_shift_left::<1>(incl);
    let seed = _mm256_insert_epi32(shifted, *carry as i32, 0);
    *carry = new_carry;
    // Lines 14-15: broadcast-add the prefix vector.
    for (j, v) in vs.iter_mut().enumerate() {
        let r = _mm256_add_epi32(regs[j], seed);
        // SAFETY: each `v` is exactly eight u32 lanes.
        unsafe { _mm256_storeu_si256(v.as_mut_ptr() as *mut __m256i, r) };
    }
}

/// Register-only 8×8 transpose of 32-bit lanes: with `r[i]` holding
/// elements `8i..8i+8`, output vector `j`, lane `l` is element `8l + j`
/// — the Algorithm 1 layout for `n_v = 8`, every lane a chain of eight
/// consecutive elements.
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
    // Stage 1: 32-bit interleave.
    let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    // Stage 2: 64-bit interleave.
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    // Stage 3: 128-bit lane exchange. Output `k` holds column `k` of the
    // 8×8 matrix, i.e. elements [k, 8+k, 16+k, ... 56+k].
    [
        _mm256_permute2x128_si256(u0, u4, 0x20),
        _mm256_permute2x128_si256(u1, u5, 0x20),
        _mm256_permute2x128_si256(u2, u6, 0x20),
        _mm256_permute2x128_si256(u3, u7, 0x20),
        _mm256_permute2x128_si256(u0, u4, 0x31),
        _mm256_permute2x128_si256(u1, u5, 0x31),
        _mm256_permute2x128_si256(u2, u6, 0x31),
        _mm256_permute2x128_si256(u3, u7, 0x31),
    ]
}

/// AVX2 8×8 transpose used to build the Algorithm 1 layout for `n_v = 8`:
/// output vector `j`, lane `l` := `scratch[l*8 + j]`.
///
/// # Safety
/// AVX2 must be available; `scratch.len() == 64`, `vs.len() == 8`.
#[target_feature(enable = "avx2")]
pub unsafe fn layout_transpose8(scratch: &[u32], vs: &mut [V32]) {
    debug_assert_eq!(scratch.len(), 64);
    debug_assert_eq!(vs.len(), 8);
    let mut r = [_mm256_setzero_si256(); 8];
    for (i, reg) in r.iter_mut().enumerate() {
        // SAFETY: the fn contract fixes `scratch.len() == 64`, so each
        // of the eight 8-lane loads is in bounds.
        *reg = unsafe { _mm256_loadu_si256(scratch.as_ptr().add(i * 8) as *const __m256i) };
    }
    let o = transpose8(r);
    for (j, v) in vs.iter_mut().enumerate() {
        // SAFETY: each `v` is exactly eight u32 lanes.
        unsafe { _mm256_storeu_si256(v.as_mut_ptr() as *mut __m256i, o[j]) };
    }
}

/// AVX2 version of [`crate::scalar::widen_rel_i64`].
///
/// # Safety
/// AVX2 must be available; `rel.len() == out.len()`.
#[target_feature(enable = "avx2")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn widen_rel_i64(base: i64, rel: &[u32], out: &mut [i64]) {
    debug_assert_eq!(rel.len(), out.len());
    let b = _mm256_set1_epi64x(base);
    let chunks = rel.len() / 4;
    for c in 0..chunks {
        // SAFETY: `c * 4 + 4 <= rel.len()` bounds the 128-bit load, and
        // `out.len() == rel.len()` (fn contract) bounds the store.
        unsafe {
            let r = _mm_loadu_si128(rel.as_ptr().add(c * 4) as *const __m128i);
            let wide = _mm256_cvtepi32_epi64(r); // sign-extends i32 -> i64
            let v = _mm256_add_epi64(b, wide);
            _mm256_storeu_si256(out.as_mut_ptr().add(c * 4) as *mut __m256i, v);
        }
    }
    for i in chunks * 4..rel.len() {
        out[i] = base.wrapping_add(rel[i] as i32 as i64);
    }
}

/// AVX2 version of [`crate::scalar::range_mask_i64`].
///
/// # Safety
/// AVX2 must be available; `out.len() * 64 >= vals.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn range_mask_i64(vals: &[i64], lo: i64, hi: i64, out: &mut [u64]) {
    out.fill(0);
    let lo_v = _mm256_set1_epi64x(lo);
    let hi_v = _mm256_set1_epi64x(hi);
    let chunks = vals.len() / 4;
    for c in 0..chunks {
        // SAFETY: `c * 4 + 4 <= vals.len()` keeps the load in bounds.
        let v = unsafe { _mm256_loadu_si256(vals.as_ptr().add(c * 4) as *const __m256i) };
        // in-range = !(lo > v) && !(v > hi)
        let below = _mm256_cmpgt_epi64(lo_v, v);
        let above = _mm256_cmpgt_epi64(v, hi_v);
        let bad = _mm256_or_si256(below, above);
        let good = _mm256_andnot_si256(bad, _mm256_set1_epi64x(-1));
        let bits = _mm256_movemask_pd(_mm256_castsi256_pd(good)) as u64 & 0xF;
        let base_bit = c * 4;
        out[base_bit / 64] |= bits << (base_bit % 64);
    }
    for i in chunks * 4..vals.len() {
        if vals[i] >= lo && vals[i] <= hi {
            out[i / 64] |= 1u64 << (i % 64);
        }
    }
}

/// AVX2 masked sum: returns `(exact_sum, count)` of values whose mask bit
/// is set. Lane accumulation runs in wrapping 64-bit with sign-rule
/// overflow detection (paper §VI-C); any overflowing block is recomputed
/// exactly in scalar `i128` arithmetic.
///
/// # Safety
/// AVX2 must be available; `mask.len() * 64 >= vals.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
    const BLOCK: usize = 4096;
    let mut sum = 0i128;
    let mut count = 0u64;
    let mut start = 0usize;
    while start < vals.len() {
        let end = (start + BLOCK).min(vals.len());
        // Blocks are 64-element aligned except possibly the last, so mask
        // words line up with the block.
        let (s, c, overflow) = masked_sum_block(&vals[start..end], mask, start);
        if overflow {
            let (es, ec) = scalar_masked_sum_range(vals, mask, start, end);
            sum += es;
            count += ec;
        } else {
            sum += s as i128;
            count += c;
        }
        start = end;
    }
    (sum, count)
}

#[target_feature(enable = "avx2")]
#[inline]
fn masked_sum_block(vals: &[i64], mask: &[u64], offset: usize) -> (i64, u64, bool) {
    let mut acc = _mm256_setzero_si256();
    let mut ovf = _mm256_setzero_si256();
    let mut count = 0u64;
    let chunks = vals.len() / 4;
    for c in 0..chunks {
        let gi = offset + c * 4;
        let bits = (mask[gi / 64] >> (gi % 64)) & 0xF;
        if bits == 0 {
            continue;
        }
        // SAFETY: `c * 4 + 4 <= vals.len()` keeps the load in bounds.
        let v = unsafe { _mm256_loadu_si256(vals.as_ptr().add(c * 4) as *const __m256i) };
        // Expand 4 mask bits to 4 lane masks.
        let lane_mask = _mm256_setr_epi64x(
            -((bits & 1) as i64),
            -(((bits >> 1) & 1) as i64),
            -(((bits >> 2) & 1) as i64),
            -(((bits >> 3) & 1) as i64),
        );
        let masked = _mm256_and_si256(v, lane_mask);
        let r = _mm256_add_epi64(acc, masked);
        // Signed-overflow rule: (a ^ r) & (b ^ r) has the sign bit set.
        let o = _mm256_and_si256(_mm256_xor_si256(acc, r), _mm256_xor_si256(masked, r));
        ovf = _mm256_or_si256(ovf, o);
        acc = r;
        count += bits.count_ones() as u64;
    }
    let overflow = _mm256_movemask_pd(_mm256_castsi256_pd(ovf)) != 0;
    let mut lanes = [0i64; 4];
    // SAFETY: `lanes` is a local array of exactly four i64 lanes — a
    // valid 256-bit store target.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
    let mut total = 0i64;
    let mut scalar_ovf = false;
    for l in lanes {
        let (t, o) = total.overflowing_add(l);
        total = t;
        scalar_ovf |= o;
    }
    // Scalar tail of the block.
    #[allow(clippy::needless_range_loop)] // global index gi drives the mask
    for i in chunks * 4..vals.len() {
        let gi = offset + i;
        if mask[gi / 64] & (1u64 << (gi % 64)) != 0 {
            let (t, o) = total.overflowing_add(vals[i]);
            total = t;
            scalar_ovf |= o;
            count += 1;
        }
    }
    (total, count, overflow || scalar_ovf)
}

#[allow(clippy::needless_range_loop)]
fn scalar_masked_sum_range(vals: &[i64], mask: &[u64], start: usize, end: usize) -> (i128, u64) {
    let mut sum = 0i128;
    let mut count = 0u64;
    for i in start..end {
        if mask[i / 64] & (1u64 << (i % 64)) != 0 {
            sum += vals[i] as i128;
            count += 1;
        }
    }
    (sum, count)
}

/// AVX2 exact sum of all values (same overflow strategy as
/// [`masked_sum_i64`]).
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn sum_i64(vals: &[i64]) -> i128 {
    const BLOCK: usize = 4096;
    let mut sum = 0i128;
    let mut start = 0usize;
    while start < vals.len() {
        let end = (start + BLOCK).min(vals.len());
        let block = &vals[start..end];
        let mut acc = _mm256_setzero_si256();
        let mut ovf = _mm256_setzero_si256();
        let chunks = block.len() / 4;
        for c in 0..chunks {
            // SAFETY: `c * 4 + 4 <= block.len()` keeps the load in bounds.
            let v = unsafe { _mm256_loadu_si256(block.as_ptr().add(c * 4) as *const __m256i) };
            let r = _mm256_add_epi64(acc, v);
            let o = _mm256_and_si256(_mm256_xor_si256(acc, r), _mm256_xor_si256(v, r));
            ovf = _mm256_or_si256(ovf, o);
            acc = r;
        }
        if _mm256_movemask_pd(_mm256_castsi256_pd(ovf)) != 0 {
            sum += block.iter().map(|&v| v as i128).sum::<i128>();
        } else {
            let mut lanes = [0i64; 4];
            // SAFETY: `lanes` is a local array of exactly four i64
            // lanes — a valid 256-bit store target.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
            let mut s: i128 = lanes.iter().map(|&l| l as i128).sum();
            for &v in &block[chunks * 4..] {
                s += v as i128;
            }
            sum += s;
        }
        start = end;
    }
    sum
}

/// Stream VByte quad decode via the 256-entry `pshufb` table
/// ([`crate::tables::SVB_SHUFFLE`]): each control byte turns one 16-byte
/// data load into four little-endian 32-bit lanes with a single byte
/// shuffle. Quads whose 16-byte window would overhang the data stream —
/// and the sub-quad tail — finish on the scalar twin.
///
/// Returns the data bytes consumed.
///
/// # Safety
/// AVX2 must be available (the shuffle itself only needs SSSE3);
/// `out.len() >= n`, `controls.len() * 4 >= n`, and `data` must hold
/// every byte the control stream declares.
#[target_feature(enable = "avx2")]
pub unsafe fn svb_decode_quads(controls: &[u8], data: &[u8], n: usize, out: &mut [u32]) -> usize {
    use crate::tables::{SVB_LEN, SVB_SHUFFLE};
    debug_assert!(out.len() >= n);
    debug_assert!(controls.len() * 4 >= n);
    let mut pos = 0usize;
    let mut k = 0usize;
    while k + 4 <= n && pos + 16 <= data.len() {
        let c = controls[k / 4] as usize;
        // SAFETY: `pos + 16 <= data.len()` bounds the source load; the
        // shuffle-table row is a fixed 16-byte array read in full; and
        // `k + 4 <= n <= out.len()` bounds the 128-bit store.
        unsafe {
            let src = _mm_loadu_si128(data.as_ptr().add(pos) as *const __m128i);
            let shuf = _mm_loadu_si128(SVB_SHUFFLE[c].as_ptr() as *const __m128i);
            let quad = _mm_shuffle_epi8(src, shuf);
            _mm_storeu_si128(out.as_mut_ptr().add(k) as *mut __m128i, quad);
        }
        pos += SVB_LEN[c] as usize;
        k += 4;
    }
    // `k` is a multiple of 4, so the tail starts on a control-byte
    // boundary with code index 0.
    pos + crate::scalar::svb_decode_quads(&controls[k / 4..], &data[pos..], n - k, &mut out[k..])
}

/// AVX2 min/max over all values (64-bit lanes via compare + blend, since
/// AVX2 has no `min/max_epi64`).
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
    if vals.is_empty() {
        return None;
    }
    let chunks = vals.len() / 4;
    if chunks == 0 {
        return crate::scalar::min_max_i64(vals);
    }
    // SAFETY: `chunks >= 1` means `vals` has at least four elements.
    let mut mn = unsafe { _mm256_loadu_si256(vals.as_ptr() as *const __m256i) };
    let mut mx = mn;
    for c in 1..chunks {
        // SAFETY: `c * 4 + 4 <= vals.len()` keeps the load in bounds.
        let v = unsafe { _mm256_loadu_si256(vals.as_ptr().add(c * 4) as *const __m256i) };
        let gt_mn = _mm256_cmpgt_epi64(mn, v);
        mn = _mm256_blendv_epi8(mn, v, gt_mn);
        let gt_v = _mm256_cmpgt_epi64(v, mx);
        mx = _mm256_blendv_epi8(mx, v, gt_v);
    }
    let mut mn_l = [0i64; 4];
    let mut mx_l = [0i64; 4];
    // SAFETY: `mn_l` / `mx_l` are local arrays of exactly four i64
    // lanes — valid 256-bit store targets.
    unsafe {
        _mm256_storeu_si256(mn_l.as_mut_ptr() as *mut __m256i, mn);
        _mm256_storeu_si256(mx_l.as_mut_ptr() as *mut __m256i, mx);
    }
    let mut lo = *mn_l.iter().min().unwrap_or(&i64::MAX);
    let mut hi = *mx_l.iter().max().unwrap_or(&i64::MIN);
    for &v in &vals[chunks * 4..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

/// The lane accumulators of one [`fold_deltas32`] call (at most
/// [`FOLD_BLOCK`] values, so at most 32 per 32-bit lane and 64 per 64-bit
/// lane), over a non-empty range `[lo, hi]`. Values are kept as unsigned
/// offsets `t = rel − lo` (wrapping `u32`), which turns the two-sided
/// compare into one — `rel` is selected iff `t ≤ hi − lo` — and needs no
/// blend for the extremes: every rejected `t` is larger than every
/// selected one, so the unsigned minimum over *all* lanes is the
/// selected minimum as soon as anything is selected, and the maximum
/// runs over the masked offsets, where rejected lanes are 0.
///
/// `good` counts the selected values (−1 each, ≥ −32: exact); `sum`
/// holds `Σt` of the selected ones zero-extended to 64 bits
/// (`≤ 2⁶·2³²`: exact); `sq` the squares of the selected `rel` modulo
/// `2⁶⁴` per lane — the one accumulator allowed to wrap, see
/// [`BlockAcc`].
struct FoldLanes {
    lo: __m256i,
    span: __m256i,
    good: __m256i,
    sum: __m256i,
    sq: __m256i,
    min_t: __m256i,
    max_t: __m256i,
}

impl FoldLanes {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new(lo: i32, hi: i32) -> Self {
        FoldLanes {
            lo: _mm256_set1_epi32(lo),
            span: _mm256_set1_epi32(hi.wrapping_sub(lo)),
            good: _mm256_setzero_si256(),
            sum: _mm256_setzero_si256(),
            sq: _mm256_setzero_si256(),
            min_t: _mm256_set1_epi32(-1),
            max_t: _mm256_setzero_si256(),
        }
    }

    /// Compares the eight `rel` lanes of `x` with `[lo, hi]` and
    /// accumulates the selected ones.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold(&mut self, x: __m256i, sum_sq: bool) {
        let t = _mm256_sub_epi32(x, self.lo);
        let good = _mm256_cmpeq_epi32(_mm256_min_epu32(t, self.span), t);
        self.good = _mm256_add_epi32(self.good, good);
        let sel = _mm256_and_si256(t, good);
        self.min_t = _mm256_min_epu32(self.min_t, t);
        self.max_t = _mm256_max_epu32(self.max_t, sel);
        // Zero-extend the even and the odd 32-bit lanes in place.
        let even = _mm256_and_si256(sel, _mm256_set1_epi64x(0xFFFF_FFFF));
        self.sum = _mm256_add_epi64(self.sum, _mm256_add_epi64(even, _mm256_srli_epi64(sel, 32)));
        if sum_sq {
            // `mul_epi32` squares the (signed) low half of each 64-bit
            // lane; the shifted copy brings the odd lanes there.
            let rel = _mm256_and_si256(x, good);
            let odd = _mm256_srli_epi64(rel, 32);
            let squares = _mm256_add_epi64(_mm256_mul_epi32(rel, rel), _mm256_mul_epi32(odd, odd));
            self.sq = _mm256_add_epi64(self.sq, squares);
        }
    }

    /// Reduces the lanes into a block, back in `rel` terms.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn reduce(self, lo: i32) -> BlockAcc {
        let mut good = [0i32; 8];
        let mut sum = [0u64; 4];
        let mut sq = [0u64; 4];
        let mut min_t = [0u32; 8];
        let mut max_t = [0u32; 8];
        // SAFETY: each target is a local array of exactly 256 bits.
        unsafe {
            _mm256_storeu_si256(good.as_mut_ptr() as *mut __m256i, self.good);
            _mm256_storeu_si256(sum.as_mut_ptr() as *mut __m256i, self.sum);
            _mm256_storeu_si256(sq.as_mut_ptr() as *mut __m256i, self.sq);
            _mm256_storeu_si256(min_t.as_mut_ptr() as *mut __m256i, self.min_t);
            _mm256_storeu_si256(max_t.as_mut_ptr() as *mut __m256i, self.max_t);
        }
        let mut block = BlockAcc::new();
        // Every selected value left −1 in its lane of `good`.
        block.count = good.iter().map(|&g| -(g as i64)).sum::<i64>() as u64;
        if block.count > 0 {
            let offsets: u64 = sum.iter().sum();
            block.sum = offsets as i64 + block.count as i64 * lo as i64;
            block.sum_sq = sq.iter().fold(0u64, |a, &l| a.wrapping_add(l));
            let t_min = min_t.iter().fold(u32::MAX, |a, &l| a.min(l));
            let t_max = max_t.iter().fold(0, |a, &l| a.max(l));
            block.min = (lo as i64 + t_min as i64) as i32;
            block.max = (lo as i64 + t_max as i64) as i32;
        }
        block
    }
}

/// The wrapping deltas eight stored values encode.
#[target_feature(enable = "avx2")]
#[inline]
fn xform_deltas(stored: __m256i, xform: DeltaXform) -> __m256i {
    match xform {
        DeltaXform::AddBase(base) => _mm256_add_epi32(stored, _mm256_set1_epi32(base as i32)),
        DeltaXform::ZigZag => {
            let sign = _mm256_and_si256(stored, _mm256_set1_epi32(1));
            _mm256_xor_si256(
                _mm256_srli_epi32(stored, 1),
                _mm256_sub_epi32(_mm256_setzero_si256(), sign),
            )
        }
    }
}

/// Wrapping inclusive prefix sum across the eight lanes of `v`.
#[target_feature(enable = "avx2")]
#[inline]
fn lane_prefix(v: __m256i) -> __m256i {
    let x = _mm256_add_epi32(v, lane_shift_left::<1>(v));
    let x = _mm256_add_epi32(x, lane_shift_left::<2>(x));
    _mm256_add_epi32(x, lane_shift_left::<4>(x))
}

/// Lane 7 of `v` in every lane.
#[target_feature(enable = "avx2")]
#[inline]
fn broadcast_last(v: __m256i) -> __m256i {
    _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7))
}

/// AVX2 version of [`crate::scalar::fold_deltas32`]: rounds of 64 deltas
/// run Algorithm 1's chain layout in registers — transpose, seven
/// lane-wise partial sums, one scan of the chain totals, broadcast add —
/// and fold the eight resulting vectors where they stand, since none of
/// the accumulated quantities depends on order; the remaining vectors of
/// eight take one in-register scan each, and the last `< 8` deltas the
/// scalar body, on the same block accumulators.
///
/// # Safety
/// AVX2 must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn fold_deltas32(
    stored: &[u32],
    xform: DeltaXform,
    carry: &mut u32,
    (lo, hi): (i32, i32),
    sum_sq: bool,
    acc: &mut RelFold,
) {
    debug_assert!(stored.len() <= FOLD_BLOCK);
    if lo > hi {
        *carry = crate::scalar::sum_deltas32(stored, xform, *carry);
        return;
    }
    let mut lanes = FoldLanes::new(lo, hi);
    // The running `rel` (u32, wrapping) in every lane.
    let mut carry_v = _mm256_set1_epi32(*carry as i32);
    let vectors = stored.len() / LANES32;
    let load = |v: usize| {
        // SAFETY: `v < vectors`, so the eight lanes at `v * 8` lie
        // inside `stored`.
        let raw = unsafe { _mm256_loadu_si256(stored.as_ptr().add(v * LANES32) as *const __m256i) };
        xform_deltas(raw, xform)
    };
    let mut v = 0usize;
    while v + LANES32 <= vectors {
        let mut o = transpose8([
            load(v),
            load(v + 1),
            load(v + 2),
            load(v + 3),
            load(v + 4),
            load(v + 5),
            load(v + 6),
            load(v + 7),
        ]);
        for j in 1..LANES32 {
            o[j] = _mm256_add_epi32(o[j], o[j - 1]);
        }
        // Lane `l` of `o[7]` is chain `l`'s total: what precedes chain
        // `l` is the carry plus the totals of the chains before it.
        let totals = lane_prefix(o[7]);
        let before = _mm256_add_epi32(lane_shift_left::<1>(totals), carry_v);
        carry_v = _mm256_add_epi32(broadcast_last(totals), carry_v);
        for chain in o {
            lanes.fold(_mm256_add_epi32(chain, before), sum_sq);
        }
        v += LANES32;
    }
    while v < vectors {
        let x = _mm256_add_epi32(lane_prefix(load(v)), carry_v);
        carry_v = broadcast_last(x);
        lanes.fold(x, sum_sq);
        v += 1;
    }
    let mut block = lanes.reduce(lo);
    let mut c = _mm256_extract_epi32(carry_v, 0) as u32;
    crate::scalar::fold_deltas32_block(
        &stored[vectors * LANES32..],
        xform,
        &mut c,
        (lo, hi),
        sum_sq,
        &mut block,
    );
    *carry = c;
    block.flush(acc);
}
