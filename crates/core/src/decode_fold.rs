//! The fold cursor: an aggregate over the value column of a page,
//! computed from the encoded bytes without building the column
//! ([`FoldCursor::fold_range`], the paper's Fig. 14(d) pipeline). Five
//! codecs, three sources, one per codec family — a page costs what its
//! fold costs:
//!
//! * **Packed 32-bit deltas** (TS2DIFF order 1, Sprintz, Stream VByte
//!   mode 0; `packed.rs`). The one walker over them: the column is read
//!   front to back in blocks of at most `FOLD_BLOCK` stored deltas,
//!   unpacked onto the stack (`unpack_u32` / `svb::decode_quads`), and
//!   the fold sink hands each block to the
//!   [`etsqp_simd::agg::fold_deltas32`] kernel, which adds the base or
//!   un-ZigZags, prefix-sums, compares with the value filter and
//!   accumulates — all in registers; no `i64` is written. The same
//!   walker has a **write sink** ([`FoldCursor::write`], Algorithm 1),
//!   which is `decode_column` for these codecs, order 2 included: the
//!   same transform, the chain-layout prefix (rounds of 64 deltas) in
//!   place on the block, and `base + rel` widened straight into the
//!   caller's `Vec<i64>`.
//! * **Delta-RLE in run space** (`runs.rs`, paper §IV): a `(Δ, run)` pair
//!   is an arithmetic progression; its ends decide the filter, closed
//!   forms give the moments. The whole-page Delta–Repeat form of
//!   [`crate::fused`] is this source with no filter.
//! * **Gorilla off the bit window** (`xor.rs`): the delta-of-delta chain
//!   is bit-serial, so values come off `gorilla::IntValues` onto a stack
//!   block and each block is folded like a decoded slice.
//!
//! The packed source works in *relative* space, `rel_k = v_k − v₀` as an
//! `i32`. [`PackedColumn`] is a parsed column the *decoders'* gates admit
//! ([`crate::decode::fits_32bit_path`] and its Sprintz / Stream VByte
//! twins): they bound the wrapping offsets, which is all the write sink
//! needs — its wrapping adds reproduce every value. The fold sink
//! translates the filter once per page (`lo − v₀`, `hi − v₀`, clamped to
//! `i32`; a bound beyond the far side selects nothing) and resolves
//! `Σv = count·v₀ + Σrel`, `min v = v₀ + min rel` exactly in `i128`,
//! which needs more: order 1, and values within `i32` reach of `v₀` as
//! integers, not merely modulo `2⁶⁴` (a page alternating between the
//! `i64` limits has small *wrapped* deltas). Run space needs the same of
//! its deltas — a known value range whose spread fits `i64` — and, for
//! `Σv²`, `|v| < 2⁴⁷`; Gorilla values are exact `i64`s and need no gate.
//! Whatever a gate rejects — width above 32, Stream VByte wide mode or a
//! `rel_bound` of `2³⁰` and up, a value range of `2³¹` and up (packed) or
//! beyond `i64` (runs), any other codec — the caller decodes with the
//! codec's serial decoder and, for an aggregate, folds the values
//! (`fold_values`).
//!
//! With no value filter a fold also returns FIRST / LAST:
//! `fold_range(i, j)` has `first` = value `i` and `last` = value `j` (the
//! packed source's first `rel` produced and its final carry, run space's
//! ends of the first and last intervals it folds, Gorilla's block ends).
//! Run space keeps them under a filter too — the ends of a clipped
//! progression are exact — and the other two leave them `None` there.

use etsqp_encoding::delta_rle;
use etsqp_encoding::{sprintz, stream_vbyte, ts2diff, Encoding};
use etsqp_simd::agg::AggState;

use crate::Result;

mod packed;
mod runs;
mod xor;
use packed::Packed;
pub use packed::PackedColumn;
pub(crate) use runs::Runs;
pub(crate) use xor::fold_values;
use xor::Xor;

/// A forward-only cursor over the values of one column, see the module
/// docs: it folds index subranges in ascending order.
pub struct FoldCursor<'a>(Source<'a>);

/// What a cursor reads, one source per codec family.
// A source carries its unpack block; the cursor lives on the job's
// stack so that a page costs no allocation.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    Packed(Packed<'a>),
    Runs(Runs<'a>),
    Xor(Xor<'a>),
}

impl<'a> FoldCursor<'a> {
    /// Parses the value column `bytes` and opens it for the fold sink,
    /// or `None` when the column has to be decoded instead.
    ///
    /// `value_range` is the known `(min, max)` of the column. `filter` is
    /// the inclusive value filter (`None` selects everything); with
    /// `prune` the scan of a TS2DIFF column stops once Propositions 4–5
    /// prove the rest cannot match it. `sum_sq` asks for `Σv²` as well.
    /// Each source has its gate: [`FoldCursor::folder`]'s for packed
    /// deltas; for Delta-RLE a known range whose spread fits `i64`, and
    /// `|v| < 2⁴⁷` under `sum_sq`; none for Gorilla.
    pub fn open(
        encoding: Encoding,
        bytes: &'a [u8],
        value_range: Option<(i64, i64)>,
        filter: Option<(i64, i64)>,
        prune: bool,
        sum_sq: bool,
    ) -> Result<Option<Self>> {
        let packed = |col: Option<PackedColumn<'a>>| {
            col.and_then(|col| Self::folder(col, value_range, filter, prune, sum_sq))
        };
        Ok(match encoding {
            Encoding::Ts2Diff | Encoding::Ts2DiffOrder2 => {
                packed(PackedColumn::ts2diff(&ts2diff::parse(bytes)?, value_range))
            }
            Encoding::Sprintz => packed(PackedColumn::sprintz(&sprintz::parse(bytes)?)),
            Encoding::StreamVByte => packed(PackedColumn::svb(&stream_vbyte::parse(bytes)?)),
            Encoding::DeltaRle => {
                let page = delta_rle::parse(bytes)?;
                // A spread inside `i64` means no stored delta wrapped, so
                // `a + k·Δ` in `i128` is the value the decoder produces;
                // values below 2⁴⁷ keep a page's `Σv²` inside `i128`.
                let small = |v: i64| v.unsigned_abs() < (1 << 47);
                let admitted = value_range.is_some_and(|(mn, mx)| {
                    mx.checked_sub(mn).is_some() && (!sum_sq || (small(mn) && small(mx)))
                });
                admitted.then(|| FoldCursor(Source::Runs(Runs::new(&page, filter, sum_sq))))
            }
            Encoding::Gorilla => Some(FoldCursor(Source::Xor(Xor::open(bytes, filter, sum_sq)?))),
            _ => None,
        })
    }

    /// Folds the values at indices `[i, j]` (inclusive, `j` clipped to
    /// the column) that pass the filter. Ranges must ascend: indices
    /// below an earlier call's `j` are behind the cursor and contribute
    /// nothing. Runs and Gorilla codes are checked as they are read, so
    /// a stream that breaks inside the range is the decoder's typed error.
    pub fn fold_range(&mut self, i: usize, j: usize) -> Result<AggState> {
        match &mut self.0 {
            Source::Packed(packed) => Ok(packed.fold_range(i, j)),
            Source::Runs(runs) => runs.fold_range(i, j),
            Source::Xor(xor) => xor.fold_range(i, j),
        }
    }

    /// Reads what the folds left unread of a stream that is only checked
    /// by reading it, so that a column fails here exactly when its
    /// decoder fails; returns how many trailing values suffix pruning
    /// proved outside the filter and the cursor therefore never produced.
    pub fn finish(mut self) -> Result<usize> {
        match &mut self.0 {
            Source::Packed(packed) => Ok(packed.pruned()),
            Source::Runs(runs) => runs.finish().map(|()| 0),
            Source::Xor(xor) => xor.finish().map(|()| 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_column, DecodeOptions};
    use crate::Error;

    /// Decode with the codec crate's serial decoder, then fold the slice
    /// one value at a time.
    fn reference(
        enc: Encoding,
        bytes: &[u8],
        (i, j): (usize, usize),
        filter: Option<(i64, i64)>,
        sum_sq: bool,
    ) -> AggState {
        let vals = enc.decode_i64(bytes).unwrap();
        let mut want = AggState::new();
        for &v in vals.iter().take(j.saturating_add(1)).skip(i) {
            if filter.is_none_or(|(lo, hi)| lo <= v && v <= hi) {
                want.push(v);
            }
        }
        // Unfiltered, every source reports the ends; filtered, only run
        // space does.
        if filter.is_some() && enc != Encoding::DeltaRle {
            (want.first, want.last) = (None, None);
        }
        if !sum_sq {
            want.sum_sq = 0;
        }
        want
    }

    #[test]
    fn subranges_in_order_match_decode_then_fold() {
        let vals: Vec<i64> = (0..1500i64)
            .map(|i| 40_000 + (i * 37) % 1013 - 500 + i / 3)
            .collect();
        let (mn, mx) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        for enc in [Encoding::Ts2Diff, Encoding::Sprintz, Encoding::StreamVByte] {
            let bytes = enc.encode_i64(&vals);
            for filter in [None, Some((40_100, 40_400)), Some((50_000, 60_000))] {
                for prune in [false, true] {
                    for sum_sq in [false, true] {
                        let mut cursor =
                            FoldCursor::open(enc, &bytes, Some((mn, mx)), filter, prune, sum_sq)
                                .unwrap()
                                .expect("inside the 32-bit gate");
                        for range in [(0, 0), (1, 255), (256, 256), (300, 1100), (1101, 9999)] {
                            assert_eq!(
                                cursor.fold_range(range.0, range.1).unwrap(),
                                reference(enc, &bytes, range, filter, sum_sq),
                                "{enc:?} {filter:?} prune={prune} sq={sum_sq} {range:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn write_sink_matches_the_serial_decoders() {
        let lengths = [
            0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 258, 1024, 1500,
        ];
        for enc in [
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Sprintz,
            Encoding::StreamVByte,
        ] {
            for len in lengths {
                for slope in [3i64, -7] {
                    let vals: Vec<i64> = (0..len as i64)
                        .map(|i| 9_000 + i * slope + (i * 37) % 11 - (i % 3))
                        .collect();
                    let bytes = enc.encode_i64(&vals);
                    let mut out = vec![-1; 5];
                    decode_column(enc, &bytes, &DecodeOptions::default(), &mut out).unwrap();
                    assert_eq!(
                        out,
                        enc.decode_i64(&bytes).unwrap(),
                        "{enc:?} {len} {slope}"
                    );
                    assert_eq!(out, vals);
                }
            }
        }
        // All of these were the walker's to write, order 2 included.
        let curve: Vec<i64> = (0..300i64).map(|i| i * i / 7).collect();
        let bytes = ts2diff::encode(&curve, 2);
        assert!(PackedColumn::ts2diff(&ts2diff::parse(&bytes).unwrap(), None).is_some());
    }

    #[test]
    fn gate_rejects_what_the_32_bit_decode_rejects() {
        let wide: Vec<i64> = (0..100i64).map(|i| i * (1 << 33)).collect();
        let order2: Vec<i64> = (0..100i64).map(|i| i * i).collect();
        let open = |enc: Encoding, vals: &[i64], sum_sq| {
            FoldCursor::open(enc, &enc.encode_i64(vals), None, None, false, sum_sq)
                .unwrap()
                .is_some()
        };
        assert!(!open(Encoding::Ts2Diff, &wide, false));
        assert!(!open(Encoding::Sprintz, &wide, false));
        assert!(!open(Encoding::StreamVByte, &wide, false));
        assert!(!open(Encoding::Ts2DiffOrder2, &order2, false));
        assert!(!open(Encoding::Rle, &order2, false));
        // Delta-RLE needs a known range (`open` here passes none) ...
        assert!(!open(Encoding::DeltaRle, &order2, false));
        let ranged = |vals: &[i64], sum_sq| {
            let range = Some((*vals.iter().min().unwrap(), *vals.iter().max().unwrap()));
            let bytes = Encoding::DeltaRle.encode_i64(vals);
            FoldCursor::open(Encoding::DeltaRle, &bytes, range, None, false, sum_sq)
                .unwrap()
                .is_some()
        };
        // ... whose spread fits `i64`, and |v| < 2⁴⁷ for Σv².
        assert!(ranged(&order2, true));
        assert!(!ranged(&[i64::MIN, -1, i64::MAX - 1], false));
        assert!(ranged(&[i64::MIN, -1], false));
        assert!(!ranged(&[i64::MIN, -1], true));
        assert!(ranged(&[0, (1 << 47) - 1], true));
        assert!(!ranged(&[0, 1 << 47], true));
        // Gorilla has no gate.
        assert!(open(Encoding::Gorilla, &wide, true));
        assert!(open(Encoding::Ts2Diff, &order2, false));
        // Σv² needs the tighter bounds: |rel| < 2²⁸ and a modest v₀.
        assert!(open(Encoding::Ts2Diff, &order2, true));
        let spread: Vec<i64> = (0..100i64).map(|i| i * (1 << 22)).collect();
        assert!(open(Encoding::Ts2Diff, &spread, false));
        assert!(!open(Encoding::Ts2Diff, &spread, true));
        let far: Vec<i64> = (0..100i64).map(|i| (1 << 50) + i).collect();
        assert!(open(Encoding::Sprintz, &far, false));
        assert!(!open(Encoding::Sprintz, &far, true));
    }

    #[test]
    fn suffix_pruning_stops_at_the_block_cadence() {
        let vals: Vec<i64> = (0..1024).collect();
        let bytes = Encoding::Ts2Diff.encode_i64(&vals);
        let mut cursor = FoldCursor::open(
            Encoding::Ts2Diff,
            &bytes,
            Some((0, 1023)),
            Some((0, 600)),
            true,
            false,
        )
        .unwrap()
        .unwrap();
        let state = cursor.fold_range(0, 1023).unwrap();
        assert_eq!((state.count, state.max), (601, Some(600)));
        // Checked at values 256, 512, 768: the first beyond 600 is 768.
        assert_eq!(cursor.finish().unwrap(), 1024 - 769);
        // The write sink stops at the same check and hands out the prefix.
        let col = PackedColumn::ts2diff(&ts2diff::parse(&bytes).unwrap(), None).unwrap();
        let mut out = Vec::new();
        assert_eq!(FoldCursor::write(col, Some((0, 600)), &mut out), 1024 - 769);
        assert_eq!(out, vals[..769]);
    }

    /// Runs of every slope, length 1 included, constant stretches, and a
    /// jittery stretch whose runs are all length 1.
    fn runs_and_noise() -> Vec<i64> {
        let mut vals = vec![1_000i64];
        for (slope, len) in [
            (5i64, 300usize),
            (0, 77),
            (-9, 200),
            (1, 1),
            (0, 1),
            (-1, 400),
        ] {
            for _ in 0..len {
                vals.push(vals[vals.len() - 1] + slope);
            }
        }
        for i in 0..300i64 {
            vals.push(vals[vals.len() - 1] + (i * 37) % 23 - 11);
        }
        vals
    }

    #[test]
    fn run_space_and_xor_space_folds_match_decode_then_fold() {
        let vals = runs_and_noise();
        let (mn, mx) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        let filters = [
            None,
            Some((0, 1_500)),
            Some((1_200, i64::MAX)),
            Some((i64::MIN, 700)),
            Some((2_500, 2_500)),
            Some((i64::MIN, i64::MAX)),
            Some((9_000, 10_000)),
            Some((10, 5)),
        ];
        let ranges = [(0, 0), (1, 255), (256, 256), (300, 1100), (1101, 9999)];
        for enc in [Encoding::DeltaRle, Encoding::Gorilla] {
            let bytes = enc.encode_i64(&vals);
            for filter in filters {
                for sum_sq in [false, true] {
                    let open = || {
                        FoldCursor::open(enc, &bytes, Some((mn, mx)), filter, true, sum_sq)
                            .unwrap()
                            .expect("admitted")
                    };
                    let mut cursor = open();
                    for range in ranges {
                        assert_eq!(
                            cursor.fold_range(range.0, range.1).unwrap(),
                            reference(enc, &bytes, range, filter, sum_sq),
                            "{enc:?} {filter:?} sq={sum_sq} {range:?}"
                        );
                    }
                    assert_eq!(cursor.finish().unwrap(), 0);
                    // One range ending mid-run, then the walk to the end.
                    let mut cursor = open();
                    assert_eq!(
                        cursor.fold_range(10, 450).unwrap(),
                        reference(enc, &bytes, (10, 450), filter, sum_sq)
                    );
                    assert_eq!(cursor.finish().unwrap(), 0);
                }
            }
        }
    }

    #[test]
    fn a_stream_that_breaks_past_the_folded_range_fails_at_finish() {
        let vals = runs_and_noise();
        let range = Some((*vals.iter().min().unwrap(), *vals.iter().max().unwrap()));
        // Gorilla: the last bytes are gone. Delta-RLE: the header declares
        // more values than the runs hold.
        let gorilla = Encoding::Gorilla.encode_i64(&vals);
        let mut delta_rle = Encoding::DeltaRle.encode_i64(&vals);
        delta_rle[..4].copy_from_slice(&(vals.len() as u32 + 9).to_be_bytes());
        for (enc, bytes) in [
            (Encoding::Gorilla, &gorilla[..gorilla.len() - 20]),
            (Encoding::DeltaRle, &delta_rle[..]),
        ] {
            let want = enc.decode_i64(bytes).map_err(Error::from).unwrap_err();
            let mut cursor = FoldCursor::open(enc, bytes, range, None, false, false)
                .unwrap()
                .unwrap();
            let head = cursor.fold_range(0, 99).unwrap();
            assert_eq!(head.count, 100, "{enc:?}: the head is intact");
            assert_eq!(cursor.finish().unwrap_err().to_string(), want.to_string());
            let mut cursor = FoldCursor::open(enc, bytes, range, None, false, false)
                .unwrap()
                .unwrap();
            let whole = cursor.fold_range(0, usize::MAX).unwrap_err();
            assert_eq!(whole.to_string(), want.to_string(), "{enc:?}");
        }
    }
}
