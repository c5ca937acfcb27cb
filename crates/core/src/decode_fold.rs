//! Decode-and-fold: a filtered aggregate over a delta-coded value column
//! without materializing the column (the paper's Fig. 14(d) pipeline).
//!
//! [`FoldCursor`] walks the packed deltas of a TS2DIFF (order 1), Sprintz
//! or Stream VByte (mode 0) column front to back. A block of at most
//! [`FOLD_BLOCK`] stored deltas is unpacked onto the stack
//! (`unpack_u32` / `svb::decode_quads`) and handed to the
//! [`etsqp_simd::agg::fold_deltas32`] kernel, which adds the base or
//! un-ZigZags, prefix-sums, compares with the value filter and
//! accumulates — all in registers. Nothing is allocated and no `i64` is
//! written.
//!
//! Everything happens in *relative* space, `rel_k = v_k − v₀` as an
//! `i32`: the filter is translated once per page (`lo − v₀`, `hi − v₀`,
//! clamped to `i32`; a bound beyond the far side selects nothing), and
//! each subrange resolves `Σv = count·v₀ + Σrel`, `min v = v₀ + min rel`
//! exactly in `i128`. That is sound under the same header-derived gates
//! that admit the materializing 32-bit decode
//! ([`crate::decode::fits_32bit_path`] and its Sprintz / Stream VByte
//! twins), plus one the decoder does not need: the values must lie
//! within `i32` reach of `v₀` as integers, not merely modulo `2⁶⁴` (a
//! page alternating between the `i64` limits has small *wrapped* deltas).
//! [`FoldCursor::open`] returns `None` for every column these reject —
//! width above 32, order 2, Stream VByte wide mode or a `rel_bound` of
//! `2³⁰` and up, a value range of `2³¹` and up, any other codec — and the
//! caller keeps decode-then-fold for those.

use etsqp_encoding::{sprintz, stream_vbyte, ts2diff, Encoding};
use etsqp_simd::agg::{fold_deltas32, AggState, DeltaXform, RelFold, FOLD_BLOCK};
use etsqp_simd::{svb, unpack};

use crate::decode::{
    fits_32bit_path, range_spread, sprintz_fits_32bit, sprintz_rel_bound, svb_fits_32bit,
    ts2diff_rel_bound, DecodeOptions,
};
use crate::prune::{prune_rest, DeltaBounds, PruneDecision};
use crate::Result;

/// A relative-space range no `i32` lies in: the kernel then only
/// advances the prefix.
const NOTHING: (i32, i32) = (1, 0);

/// Where the stored deltas of a column live.
enum Deltas<'a> {
    /// Bit-packed, `width` bits each (TS2DIFF, Sprintz): block `b` starts
    /// at bit `b · FOLD_BLOCK · width`, a byte boundary.
    Packed { payload: &'a [u8], width: u8 },
    /// Stream VByte: one control byte per four deltas, so a block starts
    /// on a control byte, at data byte `at` — known only once the blocks
    /// before it were decoded.
    Svb {
        controls: &'a [u8],
        data: &'a [u8],
        at: usize,
    },
}

/// A forward-only cursor over the values of one delta-coded column that
/// folds index subranges in ascending order, see the module docs.
pub struct FoldCursor<'a> {
    deltas: Deltas<'a>,
    xform: DeltaXform,
    /// The column's first value: `rel = 0`, stored in the header.
    v0: i64,
    /// Values in the column.
    count: usize,
    /// The value filter in relative space.
    range: (i32, i32),
    /// Accumulate `Σrel²` (VARIANCE).
    sum_sq: bool,
    /// Propositions 4–5 over the original filter, checked whenever a
    /// block of deltas has been consumed.
    prune: Option<(DeltaBounds, i64, i64)>,
    /// Values `[end, count)` provably fail the filter (suffix pruning);
    /// `count` until a check says so.
    end: usize,
    /// The next value index to produce.
    next: usize,
    /// `rel` of value `next − 1`, wrapping.
    carry: u32,
    /// Stored deltas `[block_at, block_at + block_len)`, unpacked.
    block: [u32; FOLD_BLOCK],
    block_at: usize,
    block_len: usize,
}

impl<'a> FoldCursor<'a> {
    /// Opens a cursor over the value column `bytes`, or `None` when the
    /// column has to be decoded instead (see the module docs).
    ///
    /// `value_range` is the known `(min, max)` of the column — page-header
    /// statistics — and widens the gate exactly as
    /// [`DecodeOptions::value_range`] does for the decoder. `filter` is
    /// the inclusive value filter (`None` selects everything); with
    /// `prune` the scan of a TS2DIFF column stops once Propositions 4–5
    /// prove the rest cannot match it. `sum_sq` asks for `Σv²` as well,
    /// which needs every `|v − v₀| < 2²⁸` to keep the kernel's 64-bit
    /// lanes exact, and a `v₀` small enough that `count·v²` stays inside
    /// `i128` — a column that cannot promise both is not opened.
    pub fn open(
        encoding: Encoding,
        bytes: &'a [u8],
        value_range: Option<(i64, i64)>,
        filter: Option<(i64, i64)>,
        prune: bool,
        sum_sq: bool,
    ) -> Result<Option<Self>> {
        let (deltas, xform, v0, count, rel_bound, bounds) = match encoding {
            Encoding::Ts2Diff | Encoding::Ts2DiffOrder2 => {
                let page = ts2diff::parse(bytes)?;
                let opts = DecodeOptions {
                    value_range,
                    ..DecodeOptions::default()
                };
                if page.order != 1 || !fits_32bit_path(&page, &opts) {
                    return Ok(None);
                }
                (
                    Deltas::Packed {
                        payload: page.payload,
                        width: page.width,
                    },
                    // Two's complement: the low half of `min_delta` is
                    // what a wrapping 32-bit prefix needs of it.
                    DeltaXform::AddBase(page.min_delta as u32),
                    page.first[0],
                    page.count,
                    ts2diff_rel_bound(&page),
                    Some(DeltaBounds::from_ts2diff(&page)),
                )
            }
            Encoding::Sprintz => {
                let page = sprintz::parse(bytes)?;
                if !sprintz_fits_32bit(&page) {
                    return Ok(None);
                }
                (
                    Deltas::Packed {
                        payload: page.payload,
                        width: page.width,
                    },
                    DeltaXform::ZigZag,
                    page.first,
                    page.count,
                    sprintz_rel_bound(&page),
                    None,
                )
            }
            Encoding::StreamVByte => {
                let page = stream_vbyte::parse(bytes)?;
                if !svb_fits_32bit(&page) {
                    return Ok(None);
                }
                (
                    Deltas::Svb {
                        controls: page.controls,
                        data: page.data,
                        at: 0,
                    },
                    DeltaXform::ZigZag,
                    page.first,
                    page.count,
                    page.rel_bound,
                    None,
                )
            }
            _ => return Ok(None),
        };
        // The decoders' gates bound the *wrapping* offsets, which is all a
        // decoder needs: its wrapping adds reproduce every value even when
        // a delta wrapped `i64` at encode time. Resolving `v₀ + rel` in
        // `i128` needs the true offsets, so the values themselves must lie
        // within `i32` reach of `v₀`: by the known range, or because `v₀`
        // is further than `rel_bound` from both ends of `i64`.
        let (rel_bound, in_reach) = match value_range {
            Some(r) => (range_spread(r), true),
            None => (
                rel_bound,
                i64::try_from(rel_bound)
                    .is_ok_and(|b| v0.checked_add(b).is_some() && v0.checked_sub(b).is_some()),
            ),
        };
        let true_offsets = in_reach && rel_bound < (1 << 31);
        let squares_exact = rel_bound < (1 << 28) && v0.unsigned_abs() < (1 << 47);
        if !true_offsets || (sum_sq && !squares_exact) {
            return Ok(None);
        }
        Ok(Some(FoldCursor {
            deltas,
            xform,
            v0,
            count,
            range: filter.map_or((i32::MIN, i32::MAX), |f| relative_range(f, v0)),
            sum_sq,
            prune: bounds
                .zip(filter)
                .filter(|_| prune)
                .map(|(b, (c1, c2))| (b, c1, c2)),
            end: count,
            next: 0,
            carry: 0,
            block: [0; FOLD_BLOCK],
            block_at: 0,
            block_len: 0,
        }))
    }

    /// Folds the values at indices `[i, j]` (inclusive, `j` clipped to
    /// the column) that pass the filter. Ranges must ascend: indices
    /// below an earlier call's `j` are behind the cursor and contribute
    /// nothing.
    pub fn fold_range(&mut self, i: usize, j: usize) -> AggState {
        let mut skipped = RelFold::new();
        self.advance(i, NOTHING, &mut skipped);
        let mut acc = RelFold::new();
        self.advance(j.saturating_add(1), self.range, &mut acc);
        self.resolve(&acc)
    }

    /// How many trailing values suffix pruning proved outside the filter
    /// and the cursor therefore never produced.
    pub fn pruned(&self) -> usize {
        self.count - self.end
    }

    /// Produces values up to index `to` (exclusive), folding those inside
    /// `range` into `acc`.
    fn advance(&mut self, to: usize, range: (i32, i32), acc: &mut RelFold) {
        let to = to.min(self.end);
        if self.next == 0 && to > 0 {
            // Value 0 is the header's `v₀` itself: `rel = 0`, no delta.
            if range.0 <= 0 && 0 <= range.1 {
                acc.count += 1;
                acc.min = acc.min.min(0);
                acc.max = acc.max.max(0);
            }
            self.next = 1;
        }
        while self.next < to.min(self.end) {
            // Delta `d` turns value `d` into value `d + 1`.
            let d = self.next - 1;
            if d >= self.block_at + self.block_len {
                self.load_block();
            }
            let from = d - self.block_at;
            let upto = (to - 1 - self.block_at).min(self.block_len);
            fold_deltas32(
                &self.block[from..upto],
                self.xform,
                &mut self.carry,
                range,
                self.sum_sq,
                acc,
            );
            self.next += upto - from;
            if upto == self.block_len {
                self.check_suffix();
            }
        }
    }

    /// Unpacks the block after the current one. Blocks are consumed in
    /// order, which is what lets the Stream VByte data offset ride along.
    fn load_block(&mut self) {
        self.block_at += self.block_len;
        self.block_len = FOLD_BLOCK.min(self.count - 1 - self.block_at);
        let out = &mut self.block[..self.block_len];
        match &mut self.deltas {
            // `parse` checked the payload holds `count − 1` deltas.
            Deltas::Packed { payload, width } => {
                unpack::unpack_u32(payload, self.block_at * *width as usize, *width, out)
            }
            // `parse` checked `data` holds every byte the controls
            // declare; a block starts on a control-byte boundary.
            Deltas::Svb { controls, data, at } => {
                *at +=
                    svb::decode_quads(&controls[self.block_at / 4..], &data[*at..], out.len(), out);
            }
        }
    }

    /// The suffix-pruning check, at the cadence of the materializing scan
    /// it replaces: after every whole block of deltas, on the value just
    /// produced.
    fn check_suffix(&mut self) {
        let Some((bounds, c1, c2)) = &self.prune else {
            return;
        };
        let k = self.next - 1;
        let v_k = self.v0.wrapping_add(self.carry as i32 as i64);
        if prune_rest(bounds, v_k, k, self.count, *c1, *c2) == PruneDecision::StopRest {
            self.end = self.next;
        }
    }

    /// Back from relative space: exact in `i128`, since the gate keeps
    /// every `rel` the true `v − v₀`.
    fn resolve(&self, rel: &RelFold) -> AggState {
        if rel.count == 0 {
            return AggState::new();
        }
        let v0 = self.v0 as i128;
        let n = rel.count as i128;
        AggState {
            count: rel.count,
            sum: n * v0 + rel.sum,
            min: Some((v0 + rel.min as i128) as i64),
            max: Some((v0 + rel.max as i128) as i64),
            // Σ(v₀ + rel)²; `open` bounded v₀ and rel so that no term
            // nears the i128 limits.
            sum_sq: if self.sum_sq {
                n * v0 * v0 + 2 * v0 * rel.sum + rel.sum_sq as i128
            } else {
                0
            },
            ..AggState::new()
        }
    }
}

/// The inclusive filter `[lo, hi]` on values, as a range on
/// `rel = v − v₀` in `i32`. A bound past the far end of `i32` cannot be
/// met by any `rel`, so the result is empty rather than clamped onto a
/// representable value that would then wrongly pass.
fn relative_range((lo, hi): (i64, i64), v0: i64) -> (i32, i32) {
    let lo = lo as i128 - v0 as i128;
    let hi = hi as i128 - v0 as i128;
    if lo > i32::MAX as i128 || hi < i32::MIN as i128 {
        return NOTHING;
    }
    (
        lo.max(i32::MIN as i128) as i32,
        hi.min(i32::MAX as i128) as i32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_column;

    /// Decode, then fold the slice one value at a time.
    fn reference(
        enc: Encoding,
        bytes: &[u8],
        (i, j): (usize, usize),
        filter: Option<(i64, i64)>,
        sum_sq: bool,
    ) -> AggState {
        let mut vals = Vec::new();
        decode_column(enc, bytes, &DecodeOptions::default(), &mut vals).unwrap();
        let mut want = AggState::new();
        for &v in vals.iter().take(j.saturating_add(1)).skip(i) {
            if filter.is_none_or(|(lo, hi)| lo <= v && v <= hi) {
                want.push(v);
            }
        }
        (want.first, want.last) = (None, None);
        if !sum_sq {
            want.sum_sq = 0;
        }
        want
    }

    #[test]
    fn relative_range_is_exact_at_the_i32_limits() {
        assert_eq!(relative_range((10, 20), 12), (-2, 8));
        assert_eq!(
            relative_range((i64::MIN, i64::MAX), 0),
            (i32::MIN, i32::MAX)
        );
        // A lower bound above every rel, an upper bound below every rel.
        assert_eq!(relative_range((i32::MAX as i64 + 1, i64::MAX), 0), NOTHING);
        assert_eq!(relative_range((i64::MIN, i32::MIN as i64 - 1), 0), NOTHING);
        assert_eq!(
            relative_range((i32::MAX as i64, i64::MAX), 0),
            (i32::MAX, i32::MAX)
        );
        // v₀ at the i64 limits: the translation may not wrap.
        assert_eq!(relative_range((i64::MIN, 0), i64::MAX), NOTHING);
        assert_eq!(relative_range((i64::MAX - 5, i64::MAX), i64::MAX), (-5, 0));
        assert_eq!(relative_range((0, i64::MAX), i64::MIN), NOTHING);
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
                                cursor.fold_range(range.0, range.1),
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
        assert!(!open(Encoding::DeltaRle, &order2, false));
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
        let state = cursor.fold_range(0, 1023);
        assert_eq!((state.count, state.max), (601, Some(600)));
        // Checked at values 256, 512, 768: the first beyond 600 is 768.
        assert_eq!(cursor.pruned(), 1024 - 769);
    }
}
