//! The Gorilla source of [`super::FoldCursor`], and the fold of a decoded
//! slice that it shares with the materializing path.

use etsqp_encoding::gorilla;
use etsqp_simd::agg::{AggState, FOLD_BLOCK};

use crate::expr::AggFunc;
use crate::Result;

/// The Gorilla source: the delta-of-delta chain is bit-serial, so values
/// come off [`gorilla::IntValues`] one at a time — onto a stack block
/// that is then folded like any decoded slice. No column is built.
pub(super) struct Xor<'a> {
    values: gorilla::IntValues<'a>,
    filter: (i64, i64),
    /// Report the first and the last value folded (no filter).
    ends: bool,
    sum_sq: bool,
    /// Index of the value `values` yields next.
    next: usize,
}

impl<'a> Xor<'a> {
    pub(super) fn open(bytes: &'a [u8], filter: Option<(i64, i64)>, sum_sq: bool) -> Result<Self> {
        Ok(Xor {
            values: gorilla::values_i64(bytes)?,
            filter: filter.unwrap_or((i64::MIN, i64::MAX)),
            ends: filter.is_none(),
            sum_sq,
            next: 0,
        })
    }

    /// Decodes what is left of the stream, for its checks alone.
    pub(super) fn finish(&mut self) -> Result<()> {
        Ok(self.values.by_ref().try_for_each(|v| v.map(drop))?)
    }

    pub(super) fn fold_range(&mut self, i: usize, j: usize) -> Result<AggState> {
        let skip = i.saturating_sub(self.next);
        self.next += skip;
        self.values
            .by_ref()
            .take(skip)
            .try_for_each(|v| v.map(drop))?;
        // All five moments, or the four `fold_range_i64` gives in one pass.
        let func = if self.sum_sq {
            AggFunc::Variance
        } else {
            AggFunc::Sum
        };
        let mut state = AggState::new();
        let mut block = [0i64; FOLD_BLOCK];
        while self.next <= j {
            let want = (j - self.next).saturating_add(1).min(FOLD_BLOCK);
            let n = self.values.fill(&mut block[..want])?;
            if n == 0 {
                break;
            }
            self.next += n;
            let mut part = fold_values(&block[..n], Some(self.filter), func);
            // Unfiltered, a block's ends are its first and last values;
            // filtered, FIRST / LAST are not this fold's to give.
            (part.first, part.last) = if self.ends {
                (Some(block[0]), Some(block[n - 1]))
            } else {
                (None, None)
            };
            state.merge(&part);
        }
        Ok(state)
    }
}

/// Folds the decoded values of one bucket subrange that pass the
/// optional value filter into a state, computing only what `func` needs
/// (Σx² is expensive and only VARIANCE reads it; MIN/MAX skip sums).
/// SUM/COUNT/MIN/MAX under a filter are one compare-and-accumulate pass
/// over the slice; without a filter the dense kernels run. The moments
/// FIRST/LAST/VARIANCE read still go through a SIMD range mask.
pub(crate) fn fold_values(slice: &[i64], value: Option<(i64, i64)>, func: AggFunc) -> AggState {
    let mut state = AggState::new();
    if slice.is_empty() {
        return state;
    }
    match (func, value) {
        (AggFunc::Sum | AggFunc::Avg | AggFunc::Count | AggFunc::Min | AggFunc::Max, Some(v)) => {
            state = etsqp_simd::agg::fold_range_i64(slice, v.0, v.1);
        }
        (AggFunc::Sum | AggFunc::Avg | AggFunc::Count, None) => {
            (state.sum, state.count) = (etsqp_simd::agg::sum_i64(slice), slice.len() as u64);
        }
        (AggFunc::Min | AggFunc::Max, None) => {
            (state.min, state.max) = etsqp_simd::agg::min_max_i64(slice).unzip();
            state.count = slice.len() as u64;
        }
        // VARIANCE and FIRST/LAST read the full moments and endpoints.
        // Partial-only aggregates take [`crate::physical::agg::fold_tuples`] (they need
        // timestamps and/or a sketch); the exact moments here mean a
        // planner slip degrades to a sound superset, never silence.
        (_, Some((lo, hi))) => {
            let mut mask = etsqp_simd::filter::new_mask(slice.len());
            etsqp_simd::filter::range_mask_i64(slice, lo, hi, &mut mask);
            state.push_masked(slice, &mask);
        }
        (_, None) => state.push_slice(slice),
    }
    state
}
