//! The decoding cost model: Proposition 1 (optimal number of unpacked
//! vectors `n_v`) and Theorem 2 (serial/parallel acceleration estimate).
//!
//! The constants are instruction-latency ratios in "simple-op units"
//! (one `t_add`/`t_op` ≈ one cycle of a simple ALU/vector op), matching
//! the quantities the paper plugs in: `t_prefix − t_add ≈ 11`,
//! `t_unpack ≈ 2` (Figure 4 discussion: `√(32/10 · 11/2) ≈ 4`).
//!
//! The `prop1` binary prints the model beside measured decode rates. No
//! engine code reads it: the engine fixes `n_v = 8` and prices no page.

/// Instruction-cost constants (in `t_add` units) used by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Cost of unpacking one vector from one loaded vector (Line 8:
    /// shuffle + or).
    pub t_unpack: f64,
    /// Cost of the prefix-sum construction (Line 13: the permute/add
    /// ladder), minus one `t_add`.
    pub t_prefix_minus_add: f64,
    /// Cost of a vector load.
    pub t_load: f64,
    /// Cost of the endian shuffle per loaded vector.
    pub t_shuffle: f64,
    /// Cost of the shift+mask pair per unpacked vector.
    pub t_shift_mask: f64,
    /// Memory access latency relative to a simple op (`t_visMem / t_op`).
    pub mem_ratio: f64,
    /// Streaming (DRAM-bandwidth) cost of touching one SIMD register's
    /// worth of memory, relative to a simple op — the floor shared by all
    /// cores once decoding saturates bandwidth.
    pub dram_ratio: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        // Paper's worked example: √(32/10 · 11/2) ≈ 4 ⇒ t_prefix−t_add = 11,
        // t_unpack = 2. Loads/shuffles ≈ 1–4 cycles; L2-ish memory ratio.
        CostConstants {
            t_unpack: 2.0,
            t_prefix_minus_add: 11.0,
            t_load: 4.0,
            t_shuffle: 1.0,
            t_shift_mask: 2.0,
            mem_ratio: 20.0,
            dram_ratio: 60.0,
        }
    }
}

/// SIMD vector width in bits used by the model (AVX2).
pub const SIMD_BITS: f64 = 256.0;

/// Unconstrained optimum of Proposition 1:
/// `n_v* = √( (ω'/ω) · (t_prefix − t_add) / t_unpack )`.
pub fn optimal_nv_real(packed_width: u8, unpacked_width: u8, c: &CostConstants) -> f64 {
    let w = packed_width.max(1) as f64;
    let wp = unpacked_width as f64;
    ((wp / w) * (c.t_prefix_minus_add / c.t_unpack)).sqrt()
}

/// Snaps the Proposition 1 optimum to the layouts the transpose kernels
/// support (`n_v ∈ {1, 2, 4, 8}`), choosing the supported value whose
/// modelled average time is lowest.
pub fn choose_nv(packed_width: u8, unpacked_width: u8, c: &CostConstants) -> usize {
    let mut best = 1usize;
    let mut best_t = f64::INFINITY;
    for &nv in &etsqp_simd::transpose::SUPPORTED_NV {
        let t = avg_time_per_value(packed_width, unpacked_width, nv, c);
        if t < best_t {
            best_t = t;
            best = nv;
        }
    }
    best
}

/// The `T_AVG` expression of Proposition 1: modelled decode time per value
/// for a given `n_v`.
pub fn avg_time_per_value(
    packed_width: u8,
    unpacked_width: u8,
    nv: usize,
    c: &CostConstants,
) -> f64 {
    let w = packed_width.max(1) as f64;
    let wp = unpacked_width as f64;
    let nv = nv as f64;
    // Per-round accounting (one round decodes n_v · ω_SIMD/ω' values):
    // load/endian per loaded vector, unpack per (loaded × unpacked) pair,
    // shift+mask per unpacked vector, (2n_v − 1 + n_v) adds, one prefix.
    let n_ld = nv * w / wp; // vectors loaded so no lane stays empty
    let per_round = (c.t_load + c.t_shuffle) * n_ld
        + c.t_unpack * nv * n_ld
        + c.t_shift_mask * nv
        + (2.0 * nv - 1.0)
        + c.t_prefix_minus_add
        + 1.0;
    per_round / (nv * SIMD_BITS / wp)
}

/// Theorem 2 estimate of `T_serial / T_parallel` for `threads` cores.
///
/// Serial decoding pays `2·t_visMem + shift + mask + save` per value;
/// the parallel pipeline pays the Proposition 1 optimum per value divided
/// across cores.
pub fn theorem2_speedup(
    packed_width: u8,
    unpacked_width: u8,
    threads: usize,
    c: &CostConstants,
) -> f64 {
    let serial_per_value = 2.0 * c.mem_ratio + 3.0;
    let nv = choose_nv(packed_width, unpacked_width, c);
    let compute = avg_time_per_value(packed_width, unpacked_width, nv, c) / threads as f64;
    // Memory-bandwidth floor: every thread still streams ω bits per value
    // through shared DRAM, which does not scale with the core count —
    // exactly the variable t_visMem/t_op dependence Theorem 2 notes.
    let mem_floor = packed_width.max(1) as f64 / SIMD_BITS * c.dram_ratio;
    serial_per_value / compute.max(mem_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_ten_bit() {
        // √(32/10 · 11/2) ≈ 4.19 — the paper's Figure 4 computation.
        let c = CostConstants::default();
        let nv = optimal_nv_real(10, 32, &c);
        assert!((nv - 4.19).abs() < 0.2, "got {nv}");
    }

    #[test]
    fn paper_example_twentyfive_bit() {
        // √(32/25 · 11/2) ≈ 2.65 ≈ 3 — the paper's Example 4 computation.
        let c = CostConstants::default();
        let nv = optimal_nv_real(25, 32, &c);
        assert!((nv - 2.65).abs() < 0.2, "got {nv}");
    }

    #[test]
    fn chosen_nv_is_supported() {
        let c = CostConstants::default();
        for w in 1..=32u8 {
            let nv = choose_nv(w, 32, &c);
            assert!(
                etsqp_simd::transpose::SUPPORTED_NV.contains(&nv),
                "w={w} nv={nv}"
            );
        }
    }

    #[test]
    fn avg_time_has_interior_optimum() {
        // Small widths amortize the prefix step with more vectors; wide
        // widths pay quadratic unpack costs — Proposition 1's trade-off.
        let c = CostConstants::default();
        for w in [4u8, 10] {
            let t1 = avg_time_per_value(w, 32, 1, &c);
            let t8 = avg_time_per_value(w, 32, 8, &c);
            assert!(t8 < t1, "w={w}: {t8} !< {t1}");
        }
        // choose_nv always picks the modelled minimum of the lattice.
        for w in 1..=32u8 {
            let best = choose_nv(w, 32, &c);
            let t_best = avg_time_per_value(w, 32, best, &c);
            for &nv in &etsqp_simd::transpose::SUPPORTED_NV {
                assert!(t_best <= avg_time_per_value(w, 32, nv, &c) + 1e-12, "w={w}");
            }
        }
    }

    #[test]
    fn theorem2_magnitude_matches_paper() {
        // The paper reports ≈15.3× for 10-bit TS2DIFF with 16 threads.
        // Our constants are calibrated to the same regime: the estimate
        // must land in the same order of magnitude (10×–100× band).
        let c = CostConstants::default();
        let s = theorem2_speedup(10, 32, 16, &c);
        assert!(s > 10.0 && s < 40.0, "speedup estimate {s}");
    }

    #[test]
    fn speedup_grows_then_saturates_with_threads() {
        let c = CostConstants::default();
        let s1 = theorem2_speedup(10, 32, 1, &c);
        let s4 = theorem2_speedup(10, 32, 4, &c);
        let s16 = theorem2_speedup(10, 32, 16, &c);
        let s64 = theorem2_speedup(10, 32, 64, &c);
        // Monotone non-decreasing in the thread count…
        assert!(s4 >= s1 && s16 >= s4 && s64 >= s16);
        // …and saturated by the bandwidth floor: beyond the knee more
        // threads stop helping (10-bit data is memory-bound early).
        assert!((s64 - s16).abs() < s16 * 0.05);
        // At the calibrated DRAM cost, decoding is memory-bound from the
        // start — consistent with Fig. 14(b)'s 40–50% I/O share.
    }
}
