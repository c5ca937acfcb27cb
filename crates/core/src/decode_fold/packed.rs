//! The packed-delta source of [`super::FoldCursor`] (TS2DIFF order 1,
//! Sprintz, Stream VByte mode 0) and its write sink: the one walker over
//! packed 32-bit deltas, see the parent module's docs.

use etsqp_encoding::sprintz::SprintzPage;
use etsqp_encoding::stream_vbyte::SvbPage;
use etsqp_encoding::ts2diff::Ts2DiffPage;
use etsqp_simd::agg::{fold_deltas32, AggState, DeltaXform, RelFold, FOLD_BLOCK};
use etsqp_simd::{scan, svb, transpose, unpack, LANES32};

use super::{FoldCursor, Source};
use crate::decode::{
    fits_32bit_path, range_spread, sprintz_fits_32bit, sprintz_rel_bound, svb_fits_32bit,
    ts2diff_rel_bound, DecodeOptions,
};
use crate::prune::{prune_rest, DeltaBounds, PruneDecision};

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

impl<'a> FoldCursor<'a> {
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
        let packed = Packed {
            ends: filter.is_none(),
            ..Packed::new(col, range, sum_sq, filter.filter(|_| prune))
        };
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
}

/// The packed-delta source: blocks of stored deltas through the
/// [`fold_deltas32`] kernel.
pub(super) struct Packed<'a> {
    col: PackedColumn<'a>,
    /// The value filter in relative space.
    range: (i32, i32),
    /// Accumulate `Σrel²` (VARIANCE).
    sum_sq: bool,
    /// Report the first and the last value folded (no filter).
    ends: bool,
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
            ends: false,
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

    pub(super) fn fold_range(&mut self, i: usize, j: usize) -> AggState {
        let mut skipped = RelFold::new();
        self.advance(i, NOTHING, &mut skipped);
        let mut acc = RelFold::new();
        // Unfiltered, every value produced is folded: the first one's
        // `rel` is the carry once it alone has been produced, the last
        // one's the carry at the end.
        let first = self.ends.then(|| {
            let one = self.next.saturating_add(1).min(j.saturating_add(1));
            self.advance(one, self.range, &mut acc);
            self.carry
        });
        self.advance(j.saturating_add(1), self.range, &mut acc);
        let mut state = self.resolve(&acc);
        if let (Some(first), true) = (first, state.count > 0) {
            state.first = Some(self.value(first));
            state.last = Some(self.value(self.carry));
        }
        state
    }

    pub(super) fn pruned(&self) -> usize {
        self.col.count - self.end
    }

    /// The value at relative offset `rel`: exact, since the gate keeps
    /// every `rel` the true `v − v₀`.
    fn value(&self, rel: u32) -> i64 {
        self.col.base().wrapping_add(rel as i32 as i64)
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
        let v_k = self.value(self.carry);
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
}
