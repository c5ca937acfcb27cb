//! Cross-backend differential battery: every kernel of the
//! [`SimdBackend`] trait runs through **every compiled-in backend** on
//! the same inputs and must agree bit-for-bit with the scalar
//! reference. Backend impls gate on runtime feature detection and fall
//! back to scalar, so this suite is sound on any host — on AVX2
//! machines it exercises the real vector kernels.
//!
//! This replaces the older ad-hoc per-function avx2-vs-scalar checks:
//! adding a backend (or a kernel) extends the table here, not the test
//! logic.

use etsqp_simd::agg::{DeltaXform, RelFold, FOLD_BLOCK};
use etsqp_simd::{
    agg, filter, scan, svb, transpose, unpack, Avx2Backend, ScalarBackend, SimdBackend,
};
use proptest::prelude::*;

/// Packs `vals` of `width` bits into a big-endian stream at `start_bit`.
fn pack_be(vals: &[u64], width: usize, start_bit: usize) -> Vec<u8> {
    let total_bits = start_bit + vals.len() * width;
    let mut bytes = vec![0u8; total_bits.div_ceil(8)];
    let mut p = start_bit;
    for &v in vals {
        for b in 0..width {
            if (v >> (width - 1 - b)) & 1 != 0 {
                bytes[(p + b) / 8] |= 1 << (7 - (p + b) % 8);
            }
        }
        p += width;
    }
    bytes
}

/// Encodes `vals` into separated Stream VByte control/data streams.
fn svb_encode(vals: &[u32]) -> (Vec<u8>, Vec<u8>) {
    let mut controls = vec![0u8; vals.len().div_ceil(4)];
    let mut data = Vec::new();
    for (k, &v) in vals.iter().enumerate() {
        let len = (4 - v.leading_zeros() as usize / 8).max(1);
        data.extend_from_slice(&v.to_le_bytes()[..len]);
        controls[k / 4] |= ((len - 1) as u8) << (2 * (k % 4));
    }
    (controls, data)
}

/// Runs `$case::<B>($args...)` for every compiled-in backend and asserts
/// bit-exact equality with the scalar reference result.
macro_rules! check_backends {
    ($case:ident ( $($arg:expr),* $(,)? )) => {{
        let want = $case::<ScalarBackend>($($arg),*);
        prop_assert_eq!($case::<Avx2Backend>($($arg),*), want);
    }};
}

// One observable-state probe per trait kernel. Each returns everything
// the kernel can mutate so equality is total, not partial.

fn unpack32<B: SimdBackend>(bytes: &[u8], start_bit: usize, width: u8, n: usize) -> Vec<u32> {
    let mut out = vec![0u32; n];
    B::unpack_u32(bytes, start_bit, width, &mut out);
    out
}

fn unpack64<B: SimdBackend>(bytes: &[u8], start_bit: usize, width: u8, n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    B::unpack_u64(bytes, start_bit, width, &mut out);
    out
}

fn scan_v32<B: SimdBackend>(v: [u32; 8], seed: u32) -> ([u32; 8], u32) {
    let mut v = v;
    let mut carry = seed;
    B::inclusive_scan_v32(&mut v, &mut carry);
    (v, carry)
}

fn chain_decode<B: SimdBackend>(vs: &[[u32; 8]], seed: u32) -> (Vec<[u32; 8]>, u32) {
    let mut vs = vs.to_vec();
    let mut carry = seed;
    B::chain_delta_decode(&mut vs, &mut carry);
    (vs, carry)
}

fn lay_transpose<B: SimdBackend>(scratch: &[u32], n_v: usize) -> Vec<[u32; 8]> {
    let mut vs = vec![[0u32; 8]; n_v];
    B::layout_transpose(scratch, &mut vs);
    vs
}

fn widen<B: SimdBackend>(base: i64, rel: &[u32]) -> Vec<i64> {
    let mut out = vec![0i64; rel.len()];
    B::widen_rel_i64(base, rel, &mut out);
    out
}

fn range_mask<B: SimdBackend>(vals: &[i64], lo: i64, hi: i64) -> Vec<u64> {
    let mut out = vec![0u64; vals.len().div_ceil(64).max(1)];
    B::range_mask_i64(vals, lo, hi, &mut out);
    out
}

fn sum<B: SimdBackend>(vals: &[i64]) -> i128 {
    B::sum_i64(vals)
}

fn masked_sum<B: SimdBackend>(vals: &[i64], mask: &[u64]) -> (i128, u64) {
    B::masked_sum_i64(vals, mask)
}

fn min_max<B: SimdBackend>(vals: &[i64]) -> Option<(i64, i64)> {
    B::min_max_i64(vals)
}

fn masked_min_max<B: SimdBackend>(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
    B::masked_min_max_i64(vals, mask)
}

fn svb_quads<B: SimdBackend>(controls: &[u8], data: &[u8], n: usize) -> (Vec<u32>, usize) {
    let mut out = vec![0u32; n];
    let used = B::svb_decode_quads(controls, data, n, &mut out);
    (out, used)
}

fn fold_range<B: SimdBackend>(vals: &[i64], lo: i64, hi: i64) -> agg::AggState {
    B::fold_range_i64(vals, lo, hi)
}

/// Unpack then decode-and-fold on one backend: the two kernels a page
/// pipeline chains, with everything the fold can mutate returned.
fn unpack_fold<B: SimdBackend>(
    bytes: &[u8],
    width: u8,
    n: usize,
    xform: DeltaXform,
    seed: u32,
    range: (i32, i32),
    sum_sq: bool,
) -> (RelFold, u32) {
    let mut stored = vec![0u32; n];
    B::unpack_u32(bytes, 0, width, &mut stored);
    let mut carry = seed;
    let mut acc = RelFold::new();
    B::fold_deltas32(&stored, xform, &mut carry, range, sum_sq, &mut acc);
    (acc, carry)
}

/// The fold written out from its definition, sharing no code with the
/// kernels: `Σrel²` is taken modulo 2⁶⁴ per call, as documented.
fn naive_fold(
    stored: &[u32],
    xform: DeltaXform,
    seed: u32,
    (lo, hi): (i32, i32),
    sum_sq: bool,
) -> (RelFold, u32) {
    let mut acc = RelFold::new();
    let mut sq = 0u64;
    let mut rel = seed;
    for &s in stored {
        let delta = match xform {
            DeltaXform::AddBase(base) => s.wrapping_add(base),
            DeltaXform::ZigZag => (s >> 1) ^ (s & 1).wrapping_neg(),
        };
        rel = rel.wrapping_add(delta);
        let r = rel as i32;
        if lo <= r && r <= hi {
            acc.count += 1;
            acc.sum += r as i128;
            acc.min = acc.min.min(r);
            acc.max = acc.max.max(r);
            if sum_sq {
                sq = sq.wrapping_add((r as i64 * r as i64) as u64);
            }
        }
    }
    acc.sum_sq = sq as u128;
    (acc, rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unpack_u32_all_backends(
        width in 1u8..=32,
        start_bit in 0usize..16,
        raw in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let vals: Vec<u64> = raw.iter().map(|v| v & mask).collect();
        let bytes = pack_be(&vals, width as usize, start_bit);
        check_backends!(unpack32(&bytes, start_bit, width, vals.len()));
        // The dispatched public path must agree with the reference too.
        let mut via_dispatch = vec![0u32; vals.len()];
        unpack::unpack_u32(&bytes, start_bit, width, &mut via_dispatch);
        prop_assert_eq!(via_dispatch,
                        unpack32::<ScalarBackend>(&bytes, start_bit, width, vals.len()));
    }

    #[test]
    fn unpack_u64_all_backends(
        width in 1u8..=64,
        start_bit in 0usize..8,
        raw in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let vals: Vec<u64> = raw.iter().map(|v| v & mask).collect();
        let bytes = pack_be(&vals, width as usize, start_bit);
        check_backends!(unpack64(&bytes, start_bit, width, vals.len()));
        let mut via_dispatch = vec![0u64; vals.len()];
        unpack::unpack_u64(&bytes, start_bit, width, &mut via_dispatch);
        prop_assert_eq!(via_dispatch,
                        unpack64::<ScalarBackend>(&bytes, start_bit, width, vals.len()));
    }

    #[test]
    fn scan_all_backends(v in any::<[u32; 8]>(), seed in any::<u32>()) {
        check_backends!(scan_v32(v, seed));
        let (mut dv, mut dc) = (v, seed);
        scan::inclusive_scan_v32(&mut dv, &mut dc);
        prop_assert_eq!((dv, dc), scan_v32::<ScalarBackend>(v, seed));
    }

    #[test]
    fn chain_delta_decode_all_backends(
        n_v_idx in 0usize..4,
        deltas in proptest::collection::vec(any::<u32>(), 64..=64),
        seed in any::<u32>(),
    ) {
        let n_v = transpose::SUPPORTED_NV[n_v_idx];
        let mut vs = vec![[0u32; 8]; n_v];
        for e in 0..n_v * 8 {
            vs[e % n_v][e / n_v] = deltas[e];
        }
        check_backends!(chain_decode(&vs, seed));
        let (mut dv, mut dc) = (vs.clone(), seed);
        scan::chain_delta_decode(&mut dv, &mut dc);
        prop_assert_eq!((dv, dc), chain_decode::<ScalarBackend>(&vs, seed));
    }

    #[test]
    fn transpose_all_backends(
        n_v_idx in 0usize..4,
        raw in proptest::collection::vec(any::<u32>(), 64..=64),
    ) {
        let n_v = transpose::SUPPORTED_NV[n_v_idx];
        let scratch = &raw[..n_v * 8];
        check_backends!(lay_transpose(scratch, n_v));
        let mut via_dispatch = vec![[0u32; 8]; n_v];
        transpose::layout_transpose(scratch, &mut via_dispatch);
        prop_assert_eq!(via_dispatch, lay_transpose::<ScalarBackend>(scratch, n_v));
    }

    #[test]
    fn widen_all_backends(
        base in any::<i64>(),
        rel in proptest::collection::vec(any::<u32>(), 0..100),
    ) {
        check_backends!(widen(base, &rel));
        let mut via_dispatch = vec![0i64; rel.len()];
        scan::widen_rel_i64(base, &rel, &mut via_dispatch);
        prop_assert_eq!(via_dispatch, widen::<ScalarBackend>(base, &rel));
    }

    #[test]
    fn range_mask_all_backends(
        vals in proptest::collection::vec(any::<i64>(), 0..300),
        lo in any::<i64>(),
        hi in any::<i64>(),
    ) {
        check_backends!(range_mask(&vals, lo, hi));
        let mut via_dispatch = filter::new_mask(vals.len().max(1));
        filter::range_mask_i64(&vals, lo, hi, &mut via_dispatch);
        prop_assert_eq!(via_dispatch, range_mask::<ScalarBackend>(&vals, lo, hi));
    }

    #[test]
    fn sum_all_backends(vals in proptest::collection::vec(any::<i64>(), 0..300)) {
        check_backends!(sum(&vals));
        prop_assert_eq!(agg::sum_i64(&vals), sum::<ScalarBackend>(&vals));
    }

    #[test]
    fn masked_sum_all_backends(
        vals in proptest::collection::vec(any::<i64>(), 0..300),
        mask_words in proptest::collection::vec(any::<u64>(), 5..=5),
    ) {
        check_backends!(masked_sum(&vals, &mask_words));
        prop_assert_eq!(agg::masked_sum_i64(&vals, &mask_words),
                        masked_sum::<ScalarBackend>(&vals, &mask_words));
    }

    #[test]
    fn min_max_all_backends(vals in proptest::collection::vec(any::<i64>(), 0..300)) {
        check_backends!(min_max(&vals));
        prop_assert_eq!(agg::min_max_i64(&vals), min_max::<ScalarBackend>(&vals));
    }

    #[test]
    fn masked_min_max_all_backends(
        vals in proptest::collection::vec(any::<i64>(), 0..300),
        mask_words in proptest::collection::vec(any::<u64>(), 5..=5),
    ) {
        check_backends!(masked_min_max(&vals, &mask_words));
        prop_assert_eq!(agg::masked_min_max_i64(&vals, &mask_words),
                        masked_min_max::<ScalarBackend>(&vals, &mask_words));
    }

    #[test]
    fn fold_range_all_backends(
        vals in proptest::collection::vec(any::<i64>(), 0..300),
        shift in 0u32..64,
        lo in any::<i64>(),
        hi in any::<i64>(),
    ) {
        // Full-width values overflow the lane sums at once; shifted ones
        // leave most blocks on the vector sum.
        let vals: Vec<i64> = vals.iter().map(|v| v >> shift).collect();
        for (lo, hi) in [(lo, hi), (hi, lo), (lo >> shift, i64::MAX), (i64::MIN, hi >> shift),
                         (i64::MIN, i64::MAX), (1, 0)] {
            check_backends!(fold_range(&vals, lo, hi));
            let got = agg::fold_range_i64(&vals, lo, hi);
            prop_assert_eq!(got, fold_range::<ScalarBackend>(&vals, lo, hi));
            // Against the mask kernels it replaces in the engine.
            let mut mask = filter::new_mask(vals.len().max(1));
            filter::range_mask_i64(&vals, lo, hi, &mut mask);
            prop_assert_eq!((got.sum, got.count), agg::masked_sum_i64(&vals, &mask));
            prop_assert_eq!(got.min.zip(got.max), agg::masked_min_max_i64(&vals, &mask));
        }
    }

    #[test]
    fn svb_decode_all_backends(
        raw in proptest::collection::vec(any::<u32>(), 0..500),
        shift in 0u32..32,
    ) {
        // Bias toward short byte lengths so all control classes appear.
        let vals: Vec<u32> = raw.iter().map(|v| v >> (v % (shift + 1))).collect();
        let (controls, data) = svb_encode(&vals);
        check_backends!(svb_quads(&controls, &data, vals.len()));
        let (got, used) = svb_quads::<ScalarBackend>(&controls, &data, vals.len());
        prop_assert_eq!(got, vals.clone());
        prop_assert_eq!(used, data.len());
        let mut via_dispatch = vec![0u32; vals.len()];
        let used2 = svb::decode_quads(&controls, &data, vals.len(), &mut via_dispatch);
        prop_assert_eq!(via_dispatch, vals);
        prop_assert_eq!(used2, data.len());
    }
}

#[test]
fn unpack_delta_chain_end_to_end() {
    // Pack deltas, unpack with the public API, transpose into the chain
    // layout, chain-decode, untranspose — must equal a scalar prefix sum.
    let width = 11u8;
    let deltas: Vec<u64> = (0..128u64).map(|i| (i * 37) % (1 << 11)).collect();
    let bytes = pack_be(&deltas, width as usize, 0);
    let mut unpacked = vec![0u32; deltas.len()];
    unpack::unpack_u32(&bytes, 0, width, &mut unpacked);

    let n_v = 8;
    let mut carry = 1000u32;
    let mut decoded = Vec::new();
    for round in unpacked.chunks(n_v * 8) {
        let mut vs = vec![[0u32; 8]; n_v];
        transpose::layout_transpose(round, &mut vs);
        scan::chain_delta_decode(&mut vs, &mut carry);
        let mut straight = vec![0u32; n_v * 8];
        transpose::layout_untranspose(&vs, &mut straight);
        decoded.extend_from_slice(&straight);
    }

    let mut acc = 1000u32;
    for (i, &d) in deltas.iter().enumerate() {
        acc = acc.wrapping_add(d as u32);
        assert_eq!(decoded[i], acc, "element {i}");
    }
}

/// The decode-and-fold kernel, scalar vs AVX2 vs its definition, over
/// every packing width, the block lengths around each tier of the vector
/// kernel (64-delta chain rounds, 8-delta scans, scalar tail), both delta
/// transforms, carries that wrap `u32`, and filters that are empty,
/// all-pass, one-sided, a band, and pinned at the `i32` limits.
#[test]
fn fold_deltas32_all_backends_all_widths() {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let ranges = [
        (1, 0),               // empty
        (i32::MAX, i32::MIN), // empty, at the limits
        (i32::MIN, i32::MAX), // all-pass
        (0, i32::MAX),        // one-sided
        (i32::MIN, -1),
        (-50_000, 70_000), // band
        (i32::MAX, i32::MAX),
        (i32::MIN, i32::MIN),
    ];
    let mut cases = 0usize;
    let mut selected_nothing = 0usize;
    for width in 0u8..=32 {
        let mask = (1u64 << width) - 1;
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 255, FOLD_BLOCK] {
            let vals: Vec<u64> = (0..len).map(|_| next() & mask).collect();
            let bytes = pack_be(&vals, width as usize, 0);
            let stored: Vec<u32> = vals.iter().map(|&v| v as u32).collect();
            let base = (next() as u32) >> (next() % 32);
            for xform in [
                DeltaXform::AddBase(base),
                DeltaXform::AddBase(base.wrapping_neg()),
                DeltaXform::ZigZag,
            ] {
                for seed in [0u32, 1, u32::MAX, 0x8000_0000, 0x7FFF_FFF0, next() as u32] {
                    for range in ranges {
                        for sum_sq in [false, true] {
                            let want = naive_fold(&stored, xform, seed, range, sum_sq);
                            let scalar = unpack_fold::<ScalarBackend>(
                                &bytes, width, len, xform, seed, range, sum_sq,
                            );
                            let avx2 = unpack_fold::<Avx2Backend>(
                                &bytes, width, len, xform, seed, range, sum_sq,
                            );
                            let label = format!(
                                "w={width} len={len} {xform:?} seed={seed:#x} range={range:?} \
                                 sq={sum_sq}"
                            );
                            assert_eq!(scalar, want, "scalar vs definition: {label}");
                            assert_eq!(avx2, want, "avx2 vs definition: {label}");
                            let mut carry = seed;
                            let mut acc = RelFold::new();
                            agg::fold_deltas32(&stored, xform, &mut carry, range, sum_sq, &mut acc);
                            assert_eq!((acc, carry), want, "dispatch vs definition: {label}");
                            if want.0.count == 0 {
                                // Nothing selected: the extremes stay at
                                // their identities on every backend.
                                assert_eq!((want.0.min, want.0.max), (i32::MAX, i32::MIN));
                                selected_nothing += 1;
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        cases > 50_000 && selected_nothing > 1_000,
        "{cases} / {selected_nothing}"
    );
}

/// Blocks accumulate: a column folded in pieces of any length carries
/// the prefix across calls and adds up to the column folded by the
/// definition, and `Σrel²` is exact while `|rel| < 2²⁸`.
#[test]
fn fold_deltas32_carries_across_blocks() {
    let stored: Vec<u32> = (0..1023u32)
        .map(|i| i.wrapping_mul(2654435761) >> 12)
        .collect();
    // Mean delta ≈ 0: 2¹⁹ − stored keeps |rel| far below 2²⁸.
    let xform = DeltaXform::AddBase((1u32 << 19).wrapping_neg());
    let range = (-6_000_000, -500_000);
    let (want, want_carry) = {
        let mut acc = RelFold::new();
        let (mut rel, mut sq) = (7u32, 0u128);
        for &s in &stored {
            rel = rel.wrapping_add(s.wrapping_sub(1 << 19));
            let r = rel as i32;
            assert!(r.unsigned_abs() < 1 << 28);
            if range.0 <= r && r <= range.1 {
                acc.count += 1;
                acc.sum += r as i128;
                sq += (r as i128 * r as i128) as u128;
                acc.min = acc.min.min(r);
                acc.max = acc.max.max(r);
            }
        }
        acc.sum_sq = sq;
        (acc, rel)
    };
    assert!(want.count > 100 && (want.count as usize) < stored.len());
    for piece in [1usize, 5, 64, 100, FOLD_BLOCK] {
        let mut carry = 7u32;
        let mut acc = RelFold::new();
        for block in stored.chunks(piece) {
            agg::fold_deltas32(block, xform, &mut carry, range, true, &mut acc);
        }
        assert_eq!((acc, carry), (want, want_carry), "piece={piece}");
    }
}

/// The one-pass `i64` fold across its 4096-value overflow blocks: values
/// at the `i64` limits overflow every lane sum and must still be exact.
#[test]
fn fold_range_i64_extremes_cross_blocks() {
    let vals: Vec<i64> = (0..9001)
        .map(|i| match i % 5 {
            0 => i64::MAX,
            1 => i64::MIN,
            2 => i64::MAX - i,
            3 => -i,
            _ => i,
        })
        .collect();
    for (lo, hi) in [(i64::MIN, i64::MAX), (0, i64::MAX), (i64::MIN, -1), (5, 4)] {
        let want = fold_range::<ScalarBackend>(&vals, lo, hi);
        assert_eq!(fold_range::<Avx2Backend>(&vals, lo, hi), want);
        assert_eq!(agg::fold_range_i64(&vals, lo, hi), want);
        let exact: i128 = vals
            .iter()
            .filter(|&&v| lo <= v && v <= hi)
            .map(|&v| v as i128)
            .sum();
        assert_eq!(want.sum, exact);
        assert_eq!(want.count == 0, want.min.is_none() && want.max.is_none());
    }
}
