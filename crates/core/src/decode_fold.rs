//! The fold cursor: an aggregate over the value column of a page,
//! computed from the encoded bytes without building the column
//! ([`FoldCursor::fold_range`], the paper's Fig. 14(d) pipeline). Five
//! codecs, three sources, one per codec family — a page costs what its
//! fold costs:
//!
//! * **Packed 32-bit deltas** (TS2DIFF order 1, Sprintz, Stream VByte
//!   mode 0; this file). The one walker over them: the column is read
//!   front to back in blocks of at most [`FOLD_BLOCK`] stored deltas,
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
//!   forms give the moments. The whole-page Delta–Repeat forms of
//!   [`crate::fused`] are this source with no filter.
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

use etsqp_encoding::delta_rle;
use etsqp_encoding::sprintz::SprintzPage;
use etsqp_encoding::stream_vbyte::SvbPage;
use etsqp_encoding::ts2diff::Ts2DiffPage;
use etsqp_encoding::{sprintz, stream_vbyte, ts2diff, Encoding};
use etsqp_simd::agg::{fold_deltas32, AggState, DeltaXform, RelFold, FOLD_BLOCK};
use etsqp_simd::{scan, svb, transpose, unpack, LANES32};

use crate::decode::{
    fits_32bit_path, range_spread, sprintz_fits_32bit, sprintz_rel_bound, svb_fits_32bit,
    ts2diff_rel_bound, DecodeOptions,
};
use crate::prune::{prune_rest, DeltaBounds, PruneDecision};
use crate::Result;

mod runs;
mod xor;
pub(crate) use runs::Runs;
pub(crate) use xor::fold_values;
use xor::Xor;

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

/// A parsed column whose decoder's 32-bit gate admits it: what the
/// walker needs of the page, and all either sink is built from.
pub struct PackedColumn<'a> {
    deltas: Deltas<'a>,
    xform: DeltaXform,
    /// The header's leading values: one, two for TS2DIFF order 2.
    first: [i64; 2],
    order: usize,
    /// Values in the column.
    count: usize,
    /// Header-derived bound on every wrapping `|v_k − v₀|`.
    rel_bound: u128,
    /// What Propositions 4–5 read (TS2DIFF order 1 only).
    bounds: Option<DeltaBounds>,
}

impl<'a> PackedColumn<'a> {
    /// A TS2DIFF page inside [`fits_32bit_path`]. `value_range` is the
    /// known `(min, max)` of the column — page-header statistics — and
    /// widens the gate as [`DecodeOptions::value_range`] says.
    pub fn ts2diff(page: &Ts2DiffPage<'a>, value_range: Option<(i64, i64)>) -> Option<Self> {
        if !fits_32bit_path(page, &DecodeOptions { value_range }) {
            return None;
        }
        Some(PackedColumn {
            deltas: Deltas::Packed {
                payload: page.payload,
                width: page.width,
            },
            // Two's complement: the low half of `min_delta` is what a
            // wrapping 32-bit prefix needs of it.
            xform: DeltaXform::AddBase(page.min_delta as u32),
            first: page.first,
            order: page.order as usize,
            count: page.count,
            rel_bound: ts2diff_rel_bound(page),
            bounds: (page.order == 1).then(|| DeltaBounds::from_ts2diff(page)),
        })
    }

    /// A Sprintz page inside the Sprintz twin of the gate.
    pub fn sprintz(page: &SprintzPage<'a>) -> Option<Self> {
        if !sprintz_fits_32bit(page) {
            return None;
        }
        Some(PackedColumn {
            deltas: Deltas::Packed {
                payload: page.payload,
                width: page.width,
            },
            xform: DeltaXform::ZigZag,
            first: [page.first, 0],
            order: 1,
            count: page.count,
            rel_bound: sprintz_rel_bound(page),
            bounds: None,
        })
    }

    /// A Stream VByte page inside the Stream VByte twin of the gate.
    pub fn svb(page: &SvbPage<'a>) -> Option<Self> {
        if !svb_fits_32bit(page) {
            return None;
        }
        Some(PackedColumn {
            deltas: Deltas::Svb {
                controls: page.controls,
                data: page.data,
                at: 0,
            },
            xform: DeltaXform::ZigZag,
            first: [page.first, 0],
            order: 1,
            count: page.count,
            rel_bound: page.rel_bound,
            bounds: None,
        })
    }

    /// The value every `rel` is an offset from: the last header value.
    fn base(&self) -> i64 {
        self.first[self.order - 1]
    }
}

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

    /// A cursor for the fold sink of a packed column, or `None` when
    /// `col` has to be decoded instead (see the module docs); the
    /// arguments are [`FoldCursor::open`]'s. `sum_sq` needs every
    /// `|v − v₀| < 2²⁸` to keep the kernel's 64-bit lanes exact, and a `v₀`
    /// small enough that `count·v²` stays inside `i128` — a column that
    /// cannot promise both is not opened.
    pub fn folder(
        col: PackedColumn<'a>,
        value_range: Option<(i64, i64)>,
        filter: Option<(i64, i64)>,
        prune: bool,
        sum_sq: bool,
    ) -> Option<Self> {
        // The decoders' gates bound the *wrapping* offsets, which is all a
        // decoder needs: its wrapping adds reproduce every value even when
        // a delta wrapped `i64` at encode time. Resolving `v₀ + rel` in
        // `i128` needs the true offsets, so the values themselves must lie
        // within `i32` reach of `v₀`: by the known range, or because `v₀`
        // is further than `rel_bound` from both ends of `i64`.
        let v0 = col.first[0];
        let (rel_bound, in_reach) = match value_range {
            Some(r) => (range_spread(r), true),
            None => (
                col.rel_bound,
                i64::try_from(col.rel_bound)
                    .is_ok_and(|b| v0.checked_add(b).is_some() && v0.checked_sub(b).is_some()),
            ),
        };
        let true_offsets = in_reach && rel_bound < (1 << 31);
        let squares_exact = rel_bound < (1 << 28) && v0.unsigned_abs() < (1 << 47);
        if col.order != 1 || !true_offsets || (sum_sq && !squares_exact) {
            return None;
        }
        let range = filter.map_or((i32::MIN, i32::MAX), |f| relative_range(f, v0));
        let packed = Packed::new(col, range, sum_sq, filter.filter(|_| prune));
        Some(FoldCursor(Source::Packed(packed)))
    }

    /// The write sink: decodes `col` into `out` (cleared first). With a
    /// `suffix_filter` the scan of a TS2DIFF order-1 column stops at the
    /// first block end where Propositions 4–5 prove the rest cannot match
    /// it, and `out` is that prefix; returns how many trailing values
    /// were left out.
    pub fn write(
        col: PackedColumn<'a>,
        suffix_filter: Option<(i64, i64)>,
        out: &mut Vec<i64>,
    ) -> usize {
        // This sink compares and accumulates nothing: no range, no Σrel².
        let mut cursor = Packed::new(col, NOTHING, false, suffix_filter);
        let col = &cursor.col;
        let (order, base, xform) = (col.order, col.base(), col.xform);
        out.clear();
        out.reserve(col.count);
        out.extend_from_slice(&col.first[..order.min(col.count)]);
        cursor.next = out.len();
        while cursor.next < cursor.end {
            cursor.load_block();
            let rel = &mut cursor.block[..cursor.block_len];
            match xform {
                DeltaXform::AddBase(b) => rel.iter_mut().for_each(|s| *s = s.wrapping_add(b)),
                DeltaXform::ZigZag => rel
                    .iter_mut()
                    .for_each(|z| *z = (*z >> 1) ^ (*z & 1).wrapping_neg()),
            }
            if order == 2 {
                // Delta-of-deltas → deltas, then deltas → offsets.
                prefix_in_place(rel, &mut cursor.carry_delta);
            }
            prefix_in_place(rel, &mut cursor.carry);
            let at = out.len();
            out.resize(at + rel.len(), 0);
            scan::widen_rel_i64(base, rel, &mut out[at..]);
            cursor.next = out.len();
            cursor.check_suffix();
        }
        cursor.pruned()
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

/// The packed-delta source: blocks of stored deltas through the
/// [`fold_deltas32`] kernel.
struct Packed<'a> {
    col: PackedColumn<'a>,
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
    /// Order 2 only: the delta that produced value `next − 1`, wrapping.
    carry_delta: u32,
    /// Stored deltas `[block_at, block_at + block_len)`, unpacked.
    block: [u32; FOLD_BLOCK],
    block_at: usize,
    block_len: usize,
}

impl<'a> Packed<'a> {
    fn new(
        col: PackedColumn<'a>,
        range: (i32, i32),
        sum_sq: bool,
        prune_filter: Option<(i64, i64)>,
    ) -> Self {
        Packed {
            range,
            sum_sq,
            prune: col
                .bounds
                .zip(prune_filter)
                .map(|(b, (c1, c2))| (b, c1, c2)),
            end: col.count,
            next: 0,
            carry: 0,
            carry_delta: col.first[1].wrapping_sub(col.first[0]) as u32,
            block: [0; FOLD_BLOCK],
            block_at: 0,
            block_len: 0,
            col,
        }
    }

    fn fold_range(&mut self, i: usize, j: usize) -> AggState {
        let mut skipped = RelFold::new();
        self.advance(i, NOTHING, &mut skipped);
        let mut acc = RelFold::new();
        self.advance(j.saturating_add(1), self.range, &mut acc);
        self.resolve(&acc)
    }

    fn pruned(&self) -> usize {
        self.col.count - self.end
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
                self.col.xform,
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
        self.block_len = FOLD_BLOCK.min(self.col.count - self.col.order - self.block_at);
        let out = &mut self.block[..self.block_len];
        match &mut self.col.deltas {
            // `parse` checked the payload holds every delta.
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

    /// The suffix-pruning check, after every whole block of deltas, on
    /// the value just produced.
    fn check_suffix(&mut self) {
        let Some((bounds, c1, c2)) = &self.prune else {
            return;
        };
        let k = self.next - 1;
        let v_k = self.col.base().wrapping_add(self.carry as i32 as i64);
        if prune_rest(bounds, v_k, k, self.col.count, *c1, *c2) == PruneDecision::StopRest {
            self.end = self.next;
        }
    }

    /// Back from relative space: exact in `i128`, since the gate keeps
    /// every `rel` the true `v − v₀`.
    fn resolve(&self, rel: &RelFold) -> AggState {
        if rel.count == 0 {
            return AggState::new();
        }
        let v0 = self.col.base() as i128;
        let n = rel.count as i128;
        AggState {
            count: rel.count,
            sum: n * v0 + rel.sum,
            min: Some((v0 + rel.min as i128) as i64),
            max: Some((v0 + rel.max as i128) as i64),
            // Σ(v₀ + rel)²; `folder` bounded v₀ and rel so that no term
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

/// Wrapping inclusive prefix sum of `deltas` in place, seeded by `*carry`
/// and leaving the total there: Algorithm 1's chain layout in rounds of
/// 64 (`n_v = 8`, the round the fold kernel uses), scalar over the tail.
fn prefix_in_place(deltas: &mut [u32], carry: &mut u32) {
    let mut vs = [[0u32; LANES32]; 8];
    let mut rounds = deltas.chunks_exact_mut(8 * LANES32);
    for round in &mut rounds {
        transpose::layout_transpose(round, &mut vs);
        scan::chain_delta_decode(&mut vs, carry);
        transpose::layout_untranspose(&vs, round);
    }
    for d in rounds.into_remainder() {
        *carry = carry.wrapping_add(*d);
        *d = *carry;
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
