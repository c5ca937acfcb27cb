//! Scalar twins of every SIMD kernel.
//!
//! These are the reference semantics: the AVX2 implementations in
//! [`crate::avx2`] must produce bit-identical results, which the
//! differential property tests assert. They are also the fallback on
//! non-AVX2 hardware and the tail path for partial rounds.

use crate::agg::{AggState, DeltaXform, RelFold, FOLD_BLOCK};
use crate::{LANES32, V32};

/// Reads `w` bits (1..=64) at bit position `p` from a big-endian bit
/// stream. Bit 0 of the stream is the MSB of `src[0]`.
#[inline]
#[allow(clippy::needless_range_loop)] // byte window indexing reads clearest
pub fn read_bits_be(src: &[u8], p: usize, w: usize) -> u64 {
    debug_assert!((1..=64).contains(&w));
    let first = p / 8;
    let last = (p + w - 1) / 8;
    debug_assert!(last < src.len(), "bit read out of bounds");
    let mut acc: u128 = 0;
    for b in first..=last {
        acc = (acc << 8) | src[b] as u128;
    }
    let total_bits = (last - first + 1) * 8;
    let shift = total_bits - (p - first * 8) - w;
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    ((acc >> shift) as u64) & mask
}

/// Unpacks `out.len()` values of `width` bits (0..=32) starting at
/// `start_bit` into 32-bit outputs.
pub fn unpack_u32(src: &[u8], start_bit: usize, width: u8, out: &mut [u32]) {
    if width == 0 {
        out.fill(0);
        return;
    }
    let w = width as usize;
    let mut p = start_bit;
    for o in out.iter_mut() {
        *o = read_bits_be(src, p, w) as u32;
        p += w;
    }
}

/// Unpacks `out.len()` values of `width` bits (0..=64) starting at
/// `start_bit` into 64-bit outputs.
pub fn unpack_u64(src: &[u8], start_bit: usize, width: u8, out: &mut [u64]) {
    if width == 0 {
        out.fill(0);
        return;
    }
    let w = width as usize;
    let mut p = start_bit;
    for o in out.iter_mut() {
        *o = read_bits_be(src, p, w);
        p += w;
    }
}

/// Wrapping inclusive prefix scan over the eight lanes of `v`, seeded with
/// `*carry`; `*carry` becomes the scan total (the last lane's value).
pub fn inclusive_scan_v32(v: &mut V32, carry: &mut u32) {
    let mut acc = *carry;
    for lane in v.iter_mut() {
        acc = acc.wrapping_add(*lane);
        *lane = acc;
    }
    *carry = acc;
}

/// Algorithm 1 lines 10–15 (Delta recovery over the unpacked layout).
///
/// On input, `vs[j][l]` holds the delta of global element `l * n_v + j`
/// (chains of `n_v` consecutive deltas per lane). On output, `vs[j][l]` is
/// the *inclusive* prefix sum of all deltas up to that element, seeded with
/// `*carry`; `*carry` becomes the running total after the round.
///
/// All arithmetic wraps in 32 bits (two's-complement correct for relative
/// offsets smaller than 2³¹ in magnitude; callers guard via page stats).
pub fn chain_delta_decode(vs: &mut [V32], carry: &mut u32) {
    let n_v = vs.len();
    if n_v == 0 {
        return;
    }
    // Partial sums within each chain: vs[j] += vs[j-1], lane-wise.
    for j in 1..n_v {
        let (prev, cur) = vs.split_at_mut(j);
        let prev = &prev[j - 1];
        for l in 0..LANES32 {
            cur[0][l] = cur[0][l].wrapping_add(prev[l]);
        }
    }
    // Chain totals live in the last vector; exclusive scan them across
    // lanes, seeded with the carry (prefix-sum vector of Algorithm 1 l.13).
    let totals = vs[n_v - 1];
    let mut prefix = [0u32; LANES32];
    let mut acc = *carry;
    for l in 0..LANES32 {
        prefix[l] = acc;
        acc = acc.wrapping_add(totals[l]);
    }
    *carry = acc;
    // Broadcast-add the prefix vector to every partial-sum vector (l.15).
    for v in vs.iter_mut() {
        for l in 0..LANES32 {
            v[l] = v[l].wrapping_add(prefix[l]);
        }
    }
}

/// Scatters `n_v * 8` straight-order values into the Algorithm 1 layout:
/// output vector `j`, lane `l` receives element `l * n_v + j`.
///
/// `scratch` holds the straight values (`scratch[k*8 + i]` = element
/// `k*8+i`); `n_v` must be one of 1, 2, 4, 8.
pub fn layout_transpose(scratch: &[u32], vs: &mut [V32]) {
    let n_v = vs.len();
    debug_assert_eq!(scratch.len(), n_v * LANES32);
    for (j, v) in vs.iter_mut().enumerate() {
        for (l, lane) in v.iter_mut().enumerate() {
            *lane = scratch[l * n_v + j];
        }
    }
}

/// Widens 32-bit relative offsets (two's-complement) to absolute `i64`
/// values: `out[i] = base + (rel[i] as i32 as i64)`.
pub fn widen_rel_i64(base: i64, rel: &[u32], out: &mut [i64]) {
    debug_assert_eq!(rel.len(), out.len());
    for (o, &r) in out.iter_mut().zip(rel) {
        *o = base.wrapping_add(r as i32 as i64);
    }
}

/// Builds a bitmask of elements within `[lo, hi]` (inclusive). Bit `i` of
/// `out[i / 64]` is set when `lo <= vals[i] <= hi`.
pub fn range_mask_i64(vals: &[i64], lo: i64, hi: i64, out: &mut [u64]) {
    debug_assert!(out.len() * 64 >= vals.len());
    out.fill(0);
    for (i, &v) in vals.iter().enumerate() {
        if v >= lo && v <= hi {
            out[i / 64] |= 1u64 << (i % 64);
        }
    }
}

/// Sums `vals[i]` for every set bit in `mask`, returning `(sum, count)`.
/// The sum is exact (`i128`).
pub fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
    let mut sum = 0i128;
    let mut count = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        if mask[i / 64] & (1u64 << (i % 64)) != 0 {
            sum += v as i128;
            count += 1;
        }
    }
    (sum, count)
}

/// Exact sum of all values.
pub fn sum_i64(vals: &[i64]) -> i128 {
    vals.iter().map(|&v| v as i128).sum()
}

/// Minimum and maximum of `vals`; `None` when empty.
pub fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
    let mut it = vals.iter();
    let &first = it.next()?;
    let mut mn = first;
    let mut mx = first;
    for &v in it {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    Some((mn, mx))
}

/// Stream VByte quad decode, one value at a time: reads `n` length-coded
/// `u32` values from the separated control/data streams into `out` and
/// returns the data bytes consumed. Value `k`'s 2-bit length code sits at
/// bits `2·(k mod 4)` of `controls[k / 4]`; its `code + 1` data bytes are
/// little-endian.
///
/// Callers guarantee `out.len() >= n`, `controls.len() * 4 >= n` and that
/// `data` holds every declared byte (validated by the page parser).
pub fn svb_decode_quads(controls: &[u8], data: &[u8], n: usize, out: &mut [u32]) -> usize {
    debug_assert!(out.len() >= n);
    debug_assert!(controls.len() * 4 >= n);
    let mut pos = 0usize;
    for (k, o) in out.iter_mut().take(n).enumerate() {
        let len = ((controls[k / 4] >> (2 * (k % 4))) & 3) as usize + 1;
        let mut b = [0u8; 4];
        b[..len].copy_from_slice(&data[pos..pos + len]);
        *o = u32::from_le_bytes(b);
        pos += len;
    }
    pos
}

/// Min/max over masked elements only; `None` when the mask selects nothing.
pub fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
    let mut mn = i64::MAX;
    let mut mx = i64::MIN;
    let mut any = false;
    for (i, &v) in vals.iter().enumerate() {
        if mask[i / 64] & (1u64 << (i % 64)) != 0 {
            mn = mn.min(v);
            mx = mx.max(v);
            any = true;
        }
    }
    any.then_some((mn, mx))
}

/// Count, exact sum and extremes of the values inside `[lo, hi]`, one
/// pass, no mask.
pub fn fold_range_i64(vals: &[i64], lo: i64, hi: i64) -> AggState {
    let mut state = AggState::new();
    let (mut mn, mut mx) = (i64::MAX, i64::MIN);
    for &v in vals {
        if v >= lo && v <= hi {
            state.sum += v as i128;
            state.count += 1;
            mn = mn.min(v);
            mx = mx.max(v);
        }
    }
    if state.count > 0 {
        (state.min, state.max) = (Some(mn), Some(mx));
    }
    state
}

/// Accumulators of one [`fold_deltas32`] call before they are widened
/// into a [`RelFold`]. A call sees at most [`FOLD_BLOCK`] values, so
/// `count ≤ 2⁸` and `|sum| ≤ 2⁸·2³¹` are exact in 64 bits; `sum_sq` is
/// the sum of squares modulo `2⁶⁴` — the one accumulator allowed to
/// wrap, identically on every backend because addition modulo `2⁶⁴` does
/// not care how the terms were grouped into lanes — and exact whenever
/// every selected `|rel| < 2²⁸`.
pub(crate) struct BlockAcc {
    pub(crate) count: u64,
    pub(crate) sum: i64,
    pub(crate) sum_sq: u64,
    pub(crate) min: i32,
    pub(crate) max: i32,
}

impl BlockAcc {
    pub(crate) fn new() -> Self {
        BlockAcc {
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: i32::MAX,
            max: i32::MIN,
        }
    }

    /// Widens the block's accumulators into `acc`.
    pub(crate) fn flush(self, acc: &mut RelFold) {
        acc.count += self.count;
        acc.sum += self.sum as i128;
        acc.sum_sq += self.sum_sq as u128;
        acc.min = acc.min.min(self.min);
        acc.max = acc.max.max(self.max);
    }
}

/// The wrapping delta a stored value encodes.
#[inline]
pub(crate) fn xform_delta(stored: u32, xform: DeltaXform) -> u32 {
    match xform {
        DeltaXform::AddBase(base) => stored.wrapping_add(base),
        DeltaXform::ZigZag => (stored >> 1) ^ (stored & 1).wrapping_neg(),
    }
}

/// What an empty range leaves of [`fold_deltas32`]: the prefix moves on
/// by the (wrapping) sum of the block's deltas.
pub(crate) fn sum_deltas32(stored: &[u32], xform: DeltaXform, carry: u32) -> u32 {
    stored
        .iter()
        .fold(carry, |c, &s| c.wrapping_add(xform_delta(s, xform)))
}

/// The value-at-a-time body of [`fold_deltas32`], accumulating into a
/// block the caller flushes — the reference semantics, and the tail of
/// the vector backends.
pub(crate) fn fold_deltas32_block(
    stored: &[u32],
    xform: DeltaXform,
    carry: &mut u32,
    (lo, hi): (i32, i32),
    sum_sq: bool,
    block: &mut BlockAcc,
) {
    let mut acc = *carry;
    for &s in stored {
        // The prefix is the only arithmetic meant to wrap: `rel` is a
        // two's-complement offset the page gate bounds inside `i32`.
        acc = acc.wrapping_add(xform_delta(s, xform));
        let rel = acc as i32;
        // Selects instead of a branch: whether a value passes is as good
        // as random to the predictor at middling selectivities.
        let pass = rel >= lo && rel <= hi;
        let r = if pass { rel as i64 } else { 0 };
        block.count += pass as u64;
        block.sum += r;
        block.min = if pass { block.min.min(rel) } else { block.min };
        block.max = if pass { block.max.max(rel) } else { block.max };
        if sum_sq {
            block.sum_sq = block.sum_sq.wrapping_add((r * r) as u64);
        }
    }
    *carry = acc;
}

/// Decode-and-fold over one block of stored deltas (see
/// [`crate::agg::fold_deltas32`]).
pub fn fold_deltas32(
    stored: &[u32],
    xform: DeltaXform,
    carry: &mut u32,
    range: (i32, i32),
    sum_sq: bool,
    acc: &mut RelFold,
) {
    debug_assert!(stored.len() <= FOLD_BLOCK);
    if range.0 > range.1 {
        *carry = sum_deltas32(stored, xform, *carry);
        return;
    }
    let mut block = BlockAcc::new();
    fold_deltas32_block(stored, xform, carry, range, sum_sq, &mut block);
    block.flush(acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bits_be_single_byte() {
        // 0b1011_0110: bits 0..3 (MSB-first) = 0b101 = 5.
        let src = [0b1011_0110u8];
        assert_eq!(read_bits_be(&src, 0, 3), 0b101);
        assert_eq!(read_bits_be(&src, 3, 5), 0b10110);
    }

    #[test]
    fn read_bits_be_crosses_bytes() {
        let src = [0xAB, 0xCD, 0xEF];
        // Full 24 bits.
        assert_eq!(read_bits_be(&src, 0, 24), 0xABCDEF);
        // 12 bits starting at bit 6: bits 6..18 of 0xABCDEF.
        let all = 0xABCDEFu64;
        assert_eq!(read_bits_be(&src, 6, 12), (all >> 6) & 0xFFF);
    }

    #[test]
    fn chain_decode_matches_naive_prefix_sum() {
        // 3 vectors (n_v = 3 is allowed for the scalar path), 24 deltas.
        let deltas: Vec<u32> = (1..=24).collect();
        let n_v = 3;
        let mut vs = vec![[0u32; LANES32]; n_v];
        for (e, &d) in deltas.iter().enumerate() {
            vs[e % n_v][e / n_v] = d;
        }
        let mut carry = 100u32;
        chain_delta_decode(&mut vs, &mut carry);
        let mut acc = 100u32;
        for (e, &d) in deltas.iter().enumerate() {
            acc = acc.wrapping_add(d);
            assert_eq!(vs[e % n_v][e / n_v], acc, "element {e}");
        }
        assert_eq!(carry, acc);
    }

    #[test]
    fn layout_transpose_roundtrip() {
        for n_v in [1usize, 2, 4, 8] {
            let scratch: Vec<u32> = (0..(n_v * 8) as u32).collect();
            let mut vs = vec![[0u32; LANES32]; n_v];
            layout_transpose(&scratch, &mut vs);
            for e in 0..n_v * 8 {
                assert_eq!(vs[e % n_v][e / n_v], e as u32);
            }
        }
    }

    #[test]
    fn masked_sum_counts_only_set_bits() {
        let vals: Vec<i64> = (0..100).collect();
        let mut mask = vec![0u64; 2];
        mask[0] = 0b1010; // elements 1 and 3
        let (s, c) = masked_sum_i64(&vals, &mask);
        assert_eq!((s, c), (4, 2));
    }

    #[test]
    fn fold_deltas32_folds_the_prefix_it_never_writes() {
        // Deltas +5, −3, +10, −20 from carry 7: rel = 12, 9, 19, −1.
        let zigzag = [10u32, 5, 20, 39];
        let mut carry = 7u32;
        let mut acc = RelFold::new();
        fold_deltas32(
            &zigzag,
            DeltaXform::ZigZag,
            &mut carry,
            (0, 12),
            true,
            &mut acc,
        );
        assert_eq!(carry as i32, -1);
        assert_eq!((acc.count, acc.sum, acc.sum_sq), (2, 21, 144 + 81));
        assert_eq!((acc.min, acc.max), (9, 12));
        // The same deltas as base + stored, everything selected; the
        // accumulator keeps adding up across calls.
        let stored = [25u32, 17, 30, 0];
        let base = DeltaXform::AddBase(20u32.wrapping_neg());
        let mut carry = 7u32;
        fold_deltas32(
            &stored,
            base,
            &mut carry,
            (i32::MIN, i32::MAX),
            false,
            &mut acc,
        );
        assert_eq!(carry as i32, -1);
        assert_eq!((acc.count, acc.sum, acc.sum_sq), (6, 21 + 39, 144 + 81));
        assert_eq!((acc.min, acc.max), (-1, 19));
        // An empty range moves the prefix and nothing else.
        let before = acc;
        fold_deltas32(&stored, base, &mut carry, (1, 0), true, &mut acc);
        assert_eq!((carry as i32, acc), (-9, before));
    }

    #[test]
    fn fold_range_i64_is_inclusive_and_exact() {
        let vals = [i64::MAX, 3, -4, i64::MAX, 0, i64::MIN];
        let s = fold_range_i64(&vals, 0, i64::MAX);
        assert_eq!((s.count, s.sum), (4, 2 * i64::MAX as i128 + 3));
        assert_eq!((s.min, s.max), (Some(0), Some(i64::MAX)));
        assert_eq!(fold_range_i64(&vals, 4, 2), AggState::new());
    }

    #[test]
    fn widen_handles_negative_offsets() {
        let rel = [(-5i32) as u32, 7];
        let mut out = [0i64; 2];
        widen_rel_i64(1000, &rel, &mut out);
        assert_eq!(out, [995, 1007]);
    }
}
