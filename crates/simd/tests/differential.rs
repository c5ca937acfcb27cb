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
