//! The lane-count-generic kernel backend trait.
//!
//! Every SIMD kernel in this crate exists once per backend as an
//! associated function of [`SimdBackend`]; the public module functions
//! (`unpack`, `scan`, `agg`, `filter`, `transpose`, `svb`) are pure
//! dispatchers over the runtime-selected [`crate::Backend`]. Adding a
//! wider (or narrower — NEON) instruction set is therefore a new trait
//! impl, not a rewrite of the kernel layer.
//!
//! Backend impls are **safe to call on any host**: the `Avx2Backend`
//! methods re-verify CPU feature availability (a cached atomic load)
//! and fall back to the scalar twin when the host lacks the
//! instructions. This is what makes the cross-backend differential
//! tests sound everywhere, and it keeps all `unsafe` confined to the
//! intrinsic module ([`crate::avx2`]).

use crate::agg::{AggState, DeltaXform, RelFold};
use crate::tables::{plan32, plan64, PLAN32_MAX_WIDTH, PLAN64_MAX_WIDTH};
use crate::{scalar, LANES32, V32};

/// One kernel set at a fixed SIMD width.
///
/// All methods are safe; implementations internally gate on runtime CPU
/// feature detection. Callers must uphold the documented slice-size
/// preconditions (asserted by the public dispatch wrappers):
///
/// * `unpack_*`: the stream holds `start_bit + width * out.len()` bits.
/// * `widen_rel_i64`: `rel.len() == out.len()`.
/// * `range_mask_i64` / `masked_*`: `mask.len() * 64 >= vals.len()`.
/// * `svb_decode_quads`: `out.len() >= n`, `controls.len() * 4 >= n`,
///   and `data` holds every byte the control stream declares.
/// * `fold_deltas32`: `stored.len() <= agg::FOLD_BLOCK`.
pub trait SimdBackend {
    /// Unpacks `out.len()` big-endian packed values of `width` bits
    /// (0..=32) starting at `start_bit`.
    fn unpack_u32(src: &[u8], start_bit: usize, width: u8, out: &mut [u32]);
    /// Unpacks `out.len()` big-endian packed values of `width` bits
    /// (0..=64) starting at `start_bit`.
    fn unpack_u64(src: &[u8], start_bit: usize, width: u8, out: &mut [u64]);
    /// Wrapping inclusive prefix scan over the eight lanes of `v`,
    /// seeded by `*carry`; `*carry` becomes the scan total.
    fn inclusive_scan_v32(v: &mut V32, carry: &mut u32);
    /// Algorithm 1 lines 10–15: Delta recovery over the chain layout.
    fn chain_delta_decode(vs: &mut [V32], carry: &mut u32);
    /// Scatters `vs.len() * 8` straight-order values into the chain
    /// layout: `vs[j][l] = scratch[l * n_v + j]`.
    fn layout_transpose(scratch: &[u32], vs: &mut [V32]);
    /// Widens 32-bit two's-complement relative offsets to absolute
    /// `i64`: `out[i] = base + (rel[i] as i32 as i64)`.
    fn widen_rel_i64(base: i64, rel: &[u32], out: &mut [i64]);
    /// Inclusive range bitmask: bit `i` set when `lo <= vals[i] <= hi`.
    fn range_mask_i64(vals: &[i64], lo: i64, hi: i64, out: &mut [u64]);
    /// Exact sum of all values.
    fn sum_i64(vals: &[i64]) -> i128;
    /// Exact sum and count of mask-selected values.
    fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64);
    /// Min/max over all values; `None` when empty.
    fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)>;
    /// Min/max over mask-selected values; `None` when nothing selected.
    fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)>;
    /// Stream VByte quad decode: reads `n` length-coded `u32` values
    /// from the separated `controls`/`data` streams into `out`,
    /// returning the data bytes consumed.
    fn svb_decode_quads(controls: &[u8], data: &[u8], n: usize, out: &mut [u32]) -> usize;
    /// Count, exact sum, min and max of the values inside `[lo, hi]`,
    /// one pass, no mask.
    fn fold_range_i64(vals: &[i64], lo: i64, hi: i64) -> AggState;
    /// Decode-and-fold over at most [`crate::agg::FOLD_BLOCK`] stored deltas:
    /// transform, wrapping prefix sum seeded by `*carry`, compare with
    /// `range`, accumulate into `acc` — nothing is written but `acc`
    /// and `*carry` (see [`crate::agg::fold_deltas32`]).
    fn fold_deltas32(
        stored: &[u32],
        xform: DeltaXform,
        carry: &mut u32,
        range: (i32, i32),
        sum_sq: bool,
        acc: &mut RelFold,
    );
}

/// Portable scalar kernels — the reference semantics every other
/// backend must match bit-for-bit.
pub struct ScalarBackend;

/// 256-bit AVX2 kernels (8 × 32-bit lanes). Falls back to
/// [`ScalarBackend`] when the host lacks AVX2.
pub struct Avx2Backend;

impl SimdBackend for ScalarBackend {
    fn unpack_u32(src: &[u8], start_bit: usize, width: u8, out: &mut [u32]) {
        scalar::unpack_u32(src, start_bit, width, out)
    }
    fn unpack_u64(src: &[u8], start_bit: usize, width: u8, out: &mut [u64]) {
        scalar::unpack_u64(src, start_bit, width, out)
    }
    fn inclusive_scan_v32(v: &mut V32, carry: &mut u32) {
        scalar::inclusive_scan_v32(v, carry)
    }
    fn chain_delta_decode(vs: &mut [V32], carry: &mut u32) {
        scalar::chain_delta_decode(vs, carry)
    }
    fn layout_transpose(scratch: &[u32], vs: &mut [V32]) {
        scalar::layout_transpose(scratch, vs)
    }
    fn widen_rel_i64(base: i64, rel: &[u32], out: &mut [i64]) {
        scalar::widen_rel_i64(base, rel, out)
    }
    fn range_mask_i64(vals: &[i64], lo: i64, hi: i64, out: &mut [u64]) {
        scalar::range_mask_i64(vals, lo, hi, out)
    }
    fn sum_i64(vals: &[i64]) -> i128 {
        scalar::sum_i64(vals)
    }
    fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
        scalar::masked_sum_i64(vals, mask)
    }
    fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
        scalar::min_max_i64(vals)
    }
    fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
        scalar::masked_min_max_i64(vals, mask)
    }
    fn svb_decode_quads(controls: &[u8], data: &[u8], n: usize, out: &mut [u32]) -> usize {
        scalar::svb_decode_quads(controls, data, n, out)
    }
    fn fold_range_i64(vals: &[i64], lo: i64, hi: i64) -> AggState {
        scalar::fold_range_i64(vals, lo, hi)
    }
    fn fold_deltas32(
        stored: &[u32],
        xform: DeltaXform,
        carry: &mut u32,
        range: (i32, i32),
        sum_sq: bool,
        acc: &mut RelFold,
    ) {
        scalar::fold_deltas32(stored, xform, carry, range, sum_sq, acc)
    }
}

/// Cached AVX2 availability check (an atomic load after first use).
#[inline]
pub(crate) fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl SimdBackend for Avx2Backend {
    fn unpack_u32(src: &[u8], start_bit: usize, width: u8, out: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            return unpack_u32_avx2(src, start_bit, width, out);
        }
        scalar::unpack_u32(src, start_bit, width, out)
    }

    fn unpack_u64(src: &[u8], start_bit: usize, width: u8, out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() && (1..=PLAN64_MAX_WIDTH).contains(&width) {
            let plan = plan64(width, (start_bit % 8) as u8);
            let start_byte = start_bit / 8;
            // `win_off` is built from a monotone bit-position sequence,
            // so the last window offset is the maximum.
            let rounds = safe_rounds(
                src.len(),
                start_byte,
                plan.bytes_per_round,
                plan.win_off[3],
                out.len(),
            );
            if rounds > 0 {
                // SAFETY: AVX2 presence checked by `have_avx2()` above;
                // `safe_rounds` bounds `rounds` so every 16-byte window
                // load stays inside `src` and every store inside `out`.
                unsafe { crate::avx2::unpack_u64_plan64(src, start_byte, rounds, plan, out) };
            }
            let done = rounds * LANES32;
            if done < out.len() {
                let bit = start_bit + done * width as usize;
                scalar::unpack_u64(src, bit, width, &mut out[done..]);
            }
            return;
        }
        scalar::unpack_u64(src, start_bit, width, out)
    }

    fn inclusive_scan_v32(v: &mut V32, carry: &mut u32) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above —
            // the callee's only safety precondition.
            return unsafe { crate::avx2::inclusive_scan_v32(v, carry) };
        }
        scalar::inclusive_scan_v32(v, carry)
    }

    fn chain_delta_decode(vs: &mut [V32], carry: &mut u32) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() && vs.len() <= LANES32 {
            // SAFETY: AVX2 presence checked by `have_avx2()` above; the
            // callee's `vs.len() <= 8` bound is checked by this branch.
            return unsafe { crate::avx2::chain_delta_decode(vs, carry) };
        }
        scalar::chain_delta_decode(vs, carry)
    }

    fn layout_transpose(scratch: &[u32], vs: &mut [V32]) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() && vs.len() == LANES32 {
            debug_assert_eq!(scratch.len(), LANES32 * LANES32);
            // SAFETY: AVX2 presence checked by `have_avx2()` above;
            // `vs.len() == 8` (and the matching 64-element scratch,
            // asserted by the public wrapper) is checked by this branch.
            return unsafe { crate::avx2::layout_transpose8(scratch, vs) };
        }
        scalar::layout_transpose(scratch, vs)
    }

    fn widen_rel_i64(base: i64, rel: &[u32], out: &mut [i64]) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above;
            // equal slice lengths are part of the trait contract,
            // asserted by the public wrapper.
            return unsafe { crate::avx2::widen_rel_i64(base, rel, out) };
        }
        scalar::widen_rel_i64(base, rel, out)
    }

    fn range_mask_i64(vals: &[i64], lo: i64, hi: i64, out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above; the
            // mask-capacity precondition is part of the trait contract.
            return unsafe { crate::avx2::range_mask_i64(vals, lo, hi, out) };
        }
        scalar::range_mask_i64(vals, lo, hi, out)
    }

    fn sum_i64(vals: &[i64]) -> i128 {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above —
            // the callee's only safety precondition.
            return unsafe { crate::avx2::sum_i64(vals) };
        }
        scalar::sum_i64(vals)
    }

    fn masked_sum_i64(vals: &[i64], mask: &[u64]) -> (i128, u64) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above; the
            // mask-capacity precondition is part of the trait contract.
            return unsafe { crate::avx2::masked_sum_i64(vals, mask) };
        }
        scalar::masked_sum_i64(vals, mask)
    }

    fn min_max_i64(vals: &[i64]) -> Option<(i64, i64)> {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above —
            // the callee's only safety precondition.
            return unsafe { crate::avx2::min_max_i64(vals) };
        }
        scalar::min_max_i64(vals)
    }

    fn masked_min_max_i64(vals: &[i64], mask: &[u64]) -> Option<(i64, i64)> {
        // Min/max has no overflow concern; the scalar twin is
        // branch-light and 64-bit min/max needs compare+blend anyway —
        // hot paths use the unmasked kernel on dense runs.
        scalar::masked_min_max_i64(vals, mask)
    }

    fn svb_decode_quads(controls: &[u8], data: &[u8], n: usize, out: &mut [u32]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above; the
            // control/data/out size preconditions are part of the trait
            // contract, asserted by the public wrapper.
            return unsafe { crate::avx2::svb_decode_quads(controls, data, n, out) };
        }
        scalar::svb_decode_quads(controls, data, n, out)
    }

    fn fold_range_i64(vals: &[i64], lo: i64, hi: i64) -> AggState {
        // AVX2 has 64-bit compares but no 64-bit min/max: the running
        // extremes become a compare → blend chain through one register,
        // and the vector loop measured no faster than the scalar twin
        // (EXPERIMENTS.md, "Decode-and-fold").
        scalar::fold_range_i64(vals, lo, hi)
    }

    fn fold_deltas32(
        stored: &[u32],
        xform: DeltaXform,
        carry: &mut u32,
        range: (i32, i32),
        sum_sq: bool,
        acc: &mut RelFold,
    ) {
        #[cfg(target_arch = "x86_64")]
        if have_avx2() {
            // SAFETY: AVX2 presence checked by `have_avx2()` above —
            // the callee's only safety precondition.
            return unsafe { crate::avx2::fold_deltas32(stored, xform, carry, range, sum_sq, acc) };
        }
        scalar::fold_deltas32(stored, xform, carry, range, sum_sq, acc)
    }
}

/// Dispatches one kernel call to the runtime-selected backend. The
/// public module functions are written once with this macro; no
/// backend- or codec-specific branch exists outside the trait impls.
macro_rules! dispatch {
    ($f:ident ( $($a:expr),* $(,)? )) => {
        match $crate::backend() {
            $crate::Backend::Scalar =>
                <$crate::backend::ScalarBackend as $crate::backend::SimdBackend>::$f($($a),*),
            $crate::Backend::Avx2 =>
                <$crate::backend::Avx2Backend as $crate::backend::SimdBackend>::$f($($a),*),
        }
    };
}
pub(crate) use dispatch;

/// AVX2 unpack driver: picks the Plan32 or Plan64 family, runs whole
/// vector rounds, finishes partial rounds with the scalar twin.
#[cfg(target_arch = "x86_64")]
fn unpack_u32_avx2(src: &[u8], start_bit: usize, width: u8, out: &mut [u32]) {
    if width == 0 {
        out.fill(0);
        return;
    }
    let start_byte = start_bit / 8;
    let align = (start_bit % 8) as u8;
    let rounds = if width <= PLAN32_MAX_WIDTH {
        let plan = plan32(width, align);
        let r = safe_rounds(
            src.len(),
            start_byte,
            plan.bytes_per_round,
            plan.win1_off,
            out.len(),
        );
        if r > 0 {
            // SAFETY: callers reach this driver only after `have_avx2()`
            // (or equivalent runtime detection); `safe_rounds` keeps all
            // window loads in `src` and all stores in `out`.
            unsafe { crate::avx2::unpack_u32_plan32(src, start_byte, r, plan, out) };
        }
        r
    } else {
        let plan = plan64(width, align);
        // Monotone window offsets: the last is the maximum.
        let r = safe_rounds(
            src.len(),
            start_byte,
            plan.bytes_per_round,
            plan.win_off[3],
            out.len(),
        );
        if r > 0 {
            // SAFETY: same argument as the plan32 arm — AVX2 detected at
            // runtime, `safe_rounds` bounds every load and store.
            unsafe { crate::avx2::unpack_u32_plan64(src, start_byte, r, plan, out) };
        }
        r
    };
    let done = rounds * LANES32;
    if done < out.len() {
        let bit = start_bit + done * width as usize;
        scalar::unpack_u32(src, bit, width, &mut out[done..]);
    }
}

/// Largest number of full rounds whose 16-byte window loads all stay
/// within `len` bytes: round `r` loads from
/// `start + r*bytes_per_round + max_win_off .. + 16`.
fn safe_rounds(
    len: usize,
    start: usize,
    bytes_per_round: usize,
    max_win_off: usize,
    n_out: usize,
) -> usize {
    let full = n_out / LANES32;
    if full == 0 {
        return 0;
    }
    // Need: start + (r-1)*bpr + max_win_off + 16 <= len for the last round.
    let budget = len.saturating_sub(start + max_win_off + 16);
    let by_bytes = budget / bytes_per_round
        + if len >= start + max_win_off + 16 {
            1
        } else {
            0
        };
    full.min(by_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_rounds_zero_when_no_window_fits() {
        // 10 bytes, window offset 5 needs 21 bytes for one round.
        assert_eq!(safe_rounds(10, 0, 10, 5, 64), 0);
        // Exactly one round fits.
        assert_eq!(safe_rounds(21, 0, 10, 5, 64), 1);
    }

    #[test]
    fn avx2_backend_falls_back_gracefully() {
        // Callable on any host: the impl gates on runtime detection.
        let vals: Vec<i64> = (-100..100).collect();
        assert_eq!(Avx2Backend::sum_i64(&vals), ScalarBackend::sum_i64(&vals));
    }
}
