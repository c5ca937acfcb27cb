//! Construction of the Algorithm 1 unpacked layout: straight-order values
//! are scattered so that each SIMD lane holds a *chain* of `n_v`
//! consecutive deltas across the `n_v` layout vectors (paper Figure 4(d)).
//!
//! The paper builds the layout directly inside the unpack shuffle; we
//! unpack in straight order (dense, one shuffle per eight values) and then
//! transpose in registers. The resulting layout — and therefore the Delta
//! recovery structure of Algorithm 1 — is identical; the transpose is
//! itself a register-only shuffle stage whose cost the `n_v` cost model
//! absorbs (see `etsqp_bench::cost`).

use crate::backend::dispatch;
use crate::V32;

/// `n_v` values supported by the layout (powers of two up to the lane
/// count, so the transpose stays a register permutation network).
pub const SUPPORTED_NV: [usize; 4] = [1, 2, 4, 8];

/// Scatters `vs.len() * 8` straight-order values into the chain layout:
/// `vs[j][l] = scratch[l * n_v + j]`.
///
/// # Panics
/// If `scratch.len() != vs.len() * 8` or `vs.len()` is not in
/// [`SUPPORTED_NV`].
pub fn layout_transpose(scratch: &[u32], vs: &mut [V32]) {
    let n_v = vs.len();
    assert!(SUPPORTED_NV.contains(&n_v), "unsupported n_v {n_v}");
    assert_eq!(scratch.len(), n_v * 8);
    dispatch!(layout_transpose(scratch, vs))
}

/// Gathers the chain layout back to straight order:
/// `out[l * n_v + j] = vs[j][l]` — used after Delta recovery to emit
/// decoded values in time order.
pub fn layout_untranspose(vs: &[V32], out: &mut [u32]) {
    let n_v = vs.len();
    assert_eq!(out.len(), n_v * 8);
    for (j, v) in vs.iter().enumerate() {
        for (l, &lane) in v.iter().enumerate() {
            out[l * n_v + j] = lane;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_roundtrips_for_all_nv() {
        for n_v in SUPPORTED_NV {
            let scratch: Vec<u32> = (0..(n_v * 8) as u32)
                .map(|i| i.wrapping_mul(2654435761))
                .collect();
            let mut vs = vec![[0u32; 8]; n_v];
            layout_transpose(&scratch, &mut vs);
            for e in 0..n_v * 8 {
                assert_eq!(vs[e % n_v][e / n_v], scratch[e], "n_v={n_v} e={e}");
            }
            let mut back = vec![0u32; n_v * 8];
            layout_untranspose(&vs, &mut back);
            assert_eq!(back, scratch);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_unsupported_nv() {
        let scratch = vec![0u32; 24];
        let mut vs = vec![[0u32; 8]; 3];
        layout_transpose(&scratch, &mut vs);
    }
}
