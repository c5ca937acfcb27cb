//! # etsqp-simd — SIMD kernels for encoded time-series pipelines
//!
//! This crate provides the instruction-level building blocks used by the
//! ETSQP query pipelines (paper §II-B, §III-A):
//!
//! * **Bit unpacking** of big-endian packed integer arrays into 32-bit (or
//!   64-bit) lanes, via byte shuffles, variable shifts and masks — the
//!   `shuffle / srlv / and` pattern of the paper's Figure 3.
//! * **Delta-chain decoding** over the *unpacked layout* of Algorithm 1:
//!   consecutive deltas live in the same lane across `n_v` vectors, so Delta
//!   recovery is `n_v − 1` lane-wise partial-sum additions, one logarithmic
//!   prefix scan of the chain sums, and `n_v` broadcast additions.
//! * **Filtering** (range compares producing bitmasks) and **masked
//!   aggregation** (sum / count / min / max) over decoded lanes.
//!
//! Every kernel exists once per backend as an associated function of the
//! lane-count-generic [`SimdBackend`] trait: a safe scalar reference
//! ([`ScalarBackend`]) and an AVX2 instantiation ([`Avx2Backend`]) using
//! the instruction families the paper names (`_mm256_shuffle_epi8`,
//! `_mm256_srlv_epi32`, `_mm256_and_si256`, `_mm256_permutevar8x32_epi32`).
//! The public module functions dispatch to the backend chosen once at
//! startup from CPUID (`backend()`); the one override is the environment
//! variable `ETSQP_FORCE_SCALAR=1`, which forces the scalar twin for
//! differential testing.
//!
//! All unpacking kernels consume **big-endian bit streams** (MSB-first
//! within each byte), matching how IoT databases flush encoded pages
//! (paper Figure 1(b)).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod agg;
pub mod backend;
pub mod filter;
pub mod scan;
pub mod svb;
pub mod tables;
pub mod transpose;
pub mod unpack;

mod avx2;
#[doc(hidden)]
pub mod scalar;

pub use backend::{Avx2Backend, ScalarBackend, SimdBackend};

/// The SIMD backend selected at process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar implementations (bit-exact twins of the AVX2 path).
    Scalar,
    /// 256-bit AVX2 implementations.
    Avx2,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Scalar => write!(f, "scalar"),
            Backend::Avx2 => write!(f, "avx2"),
        }
    }
}

/// The backend choice as a pure function of its two inputs: AVX2 when
/// the CPU has it, unless the scalar twin is forced.
fn select(force_scalar: bool, avx2: bool) -> Backend {
    if avx2 && !force_scalar {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Returns the backend used by all kernels in this crate.
///
/// Detection runs once; `ETSQP_FORCE_SCALAR=1` overrides to [`Backend::Scalar`].
pub fn backend() -> Backend {
    use std::sync::OnceLock;
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        select(
            std::env::var_os("ETSQP_FORCE_SCALAR").is_some_and(|v| v == "1"),
            backend::have_avx2(),
        )
    })
}

/// Number of 32-bit lanes in one SIMD vector (256-bit AVX2 register).
pub const LANES32: usize = 8;
/// Number of 64-bit lanes in one SIMD vector.
pub const LANES64: usize = 4;

/// A 256-bit vector of eight 32-bit lanes, the unit the unpack/delta
/// kernels operate on (paper's `V'_i` vectors in Figure 4).
pub type V32 = [u32; LANES32];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_across_calls() {
        assert_eq!(backend(), backend());
    }

    #[test]
    fn select_table() {
        assert_eq!(select(false, true), Backend::Avx2);
        assert_eq!(select(true, true), Backend::Scalar);
        assert_eq!(select(false, false), Backend::Scalar);
        assert_eq!(select(true, false), Backend::Scalar);
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::Scalar.to_string(), "scalar");
        assert_eq!(Backend::Avx2.to_string(), "avx2");
    }
}
