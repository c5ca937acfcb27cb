//! The Delta-RLE source of [`super::FoldCursor`], in run space: also
//! what [`crate::fused`]'s whole-page Delta–Repeat forms are adapters
//! over, so the closed form and the filtered fold are one walker.
//! FIRST / LAST are the ends of the first and last intervals folded,
//! exact under a filter too.

use etsqp_encoding::delta_rle::{self, DeltaRlePage};
use etsqp_simd::agg::AggState;

use crate::{Error, Result};

/// The Delta-RLE source, in run space (paper §IV, Proposition 3): a
/// `(Δ, run)` pair is an arithmetic progression, monotone, so its two
/// ends decide whether the filter takes all of it, none, or one index
/// interval that two divisions find; COUNT / SUM / MIN / MAX / `Σv²` of an
/// interval are polynomials in its ends and length. Nothing is flattened.
/// Runs are checked against the declared count as they are read
/// ([`delta_rle::CheckedRuns`]), and a run that leaves `i64` — deltas that
/// wrapped at encode time, which the decoder's wrapping adds undo and
/// `i128` does not — is [`Error::Overflow`].
pub(crate) struct Runs<'a> {
    runs: delta_rle::CheckedRuns<'a>,
    filter: (i64, i64),
    sum_sq: bool,
    /// The current run: values `base + k·delta` for `k ∈ 1..=len`, at
    /// indices `at..at + len`. The first value is a run of its own.
    base: i64,
    delta: i64,
    at: usize,
    len: usize,
}

impl<'a> Runs<'a> {
    pub(crate) fn new(page: &DeltaRlePage<'a>, filter: Option<(i64, i64)>, sum_sq: bool) -> Self {
        Runs {
            runs: page.runs(),
            filter: filter.unwrap_or((i64::MIN, i64::MAX)),
            sum_sq,
            base: page.first,
            delta: 0,
            at: 0,
            len: page.count.min(1),
        }
    }

    /// Value `k` of the current run; `next_run` checked that it lies
    /// inside `i64`, where the wrapping forms are exact.
    fn value(&self, k: usize) -> i64 {
        self.base.wrapping_add(self.delta.wrapping_mul(k as i64))
    }

    /// Steps to the next run; `false` once the pairs are through.
    fn next_run(&mut self) -> Result<bool> {
        let Some(pair) = self.runs.next() else {
            return Ok(false);
        };
        let (delta, len) = pair?;
        (self.base, self.at) = (self.value(self.len), self.at + self.len);
        (self.delta, self.len) = (delta, len);
        // Monotone from a value inside `i64`: the far end decides.
        i64::try_from(self.base as i128 + delta as i128 * len as i128)
            .map_err(|_| Error::Overflow)?;
        Ok(true)
    }

    /// Walks what is left of the pairs, for their checks alone.
    pub(crate) fn finish(&mut self) -> Result<()> {
        while self.next_run()? {}
        Ok(())
    }

    pub(crate) fn fold_range(&mut self, i: usize, j: usize) -> Result<AggState> {
        let mut acc = AggState::new();
        loop {
            let end = self.at + self.len;
            // The part of `[i, j]` inside this run, as offsets `k`.
            let k1 = i.max(self.at) + 1 - self.at;
            let k2 = j.saturating_add(1).min(end).saturating_sub(self.at);
            if k1 <= k2 {
                self.fold_interval(k1, k2, &mut acc);
            }
            if j < end || !self.next_run()? {
                return Ok(acc);
            }
        }
    }

    /// Folds the values `base + k·delta`, `k ∈ [k1, k2]`, that pass the
    /// filter.
    fn fold_interval(&self, mut k1: usize, mut k2: usize, acc: &mut AggState) {
        let (lo, hi) = self.filter;
        let (mut first, mut last) = (self.value(k1), self.value(k2));
        let (mn, mx) = (first.min(last), first.max(last));
        if mx < lo || mn > hi {
            return;
        }
        if mn < lo || mx > hi {
            // Straddling, so `delta ≠ 0`: clip `lo ≤ base + k·delta ≤ hi`
            // to `k`, inside `[k1, k2]`.
            let (base, d) = (self.base as i128, self.delta as i128);
            let (near, far) = if d > 0 { (lo, hi) } else { (hi, lo) };
            let c1 = div_ceil(near as i128 - base, d).max(k1 as i128);
            let c2 = div_floor(far as i128 - base, d).min(k2 as i128);
            if c1 > c2 {
                return;
            }
            (k1, k2) = (c1 as usize, c2 as usize);
            (first, last) = (self.value(k1), self.value(k2));
        }
        // Intervals are folded in index order: the first one's start and
        // the latest one's end are the ends of the whole fold.
        acc.first = acc.first.or(Some(first));
        acc.last = Some(last);
        let (n, first, last) = ((k2 - k1 + 1) as i128, first as i128, last as i128);
        acc.count += n as u64;
        acc.sum += (first + last) * n / 2;
        let (mn, mx) = (first.min(last) as i64, first.max(last) as i64);
        acc.min = Some(acc.min.map_or(mn, |m| m.min(mn)));
        acc.max = Some(acc.max.map_or(mx, |m| m.max(mx)));
        if self.sum_sq {
            // Σ_{m<n} (f + m·d)² = n·f·l + d²·Σm², below 2¹²³ while
            // |v| < 2⁴⁷ (the cursor's gate; every factor is an integer, so
            // no partial product exceeds the whole). Larger values — the
            // ungated whole-page form only — are squared one by one.
            let d = self.delta as i128;
            let squares = if first.abs().max(last.abs()) < (1 << 47) {
                // Σm² = Σm·(2m + 1)/3 over m < n: in `u64` (n is below the
                // page cap of 2²⁶; a 128-bit division is a library call),
                // 3 dividing one factor or the other.
                let m = (k2 - k1) as u64;
                let tri = m * (m + 1) / 2;
                let (a, b) = match tri % 3 {
                    0 => (tri / 3, 2 * m + 1),
                    _ => (tri, (2 * m + 1) / 3),
                };
                n * first * last + d * d * (a as i128 * b as i128)
            } else {
                squares_one_by_one(first, d, n)
            };
            acc.sum_sq = acc.sum_sq.saturating_add(squares);
        }
    }
}

/// `Σ_{m<n} (first + m·d)²`, saturating, over values inside `i64`.
#[cold]
fn squares_one_by_one(first: i128, d: i128, n: i128) -> i128 {
    (0..n).fold(0, |s, m| s.saturating_add((first + m * d).pow(2)))
}

/// `⌊a / b⌋` for `b ≠ 0`.
fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// `⌈a / b⌉` for `b ≠ 0`.
fn div_ceil(a: i128, b: i128) -> i128 {
    -div_floor(-a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_and_ceiling_division_at_every_sign() {
        for a in -7i128..=7 {
            for b in [-3i128, -1, 1, 2, 5] {
                let q = a as f64 / b as f64;
                assert_eq!(div_floor(a, b), q.floor() as i128, "{a}/{b}");
                assert_eq!(div_ceil(a, b), q.ceil() as i128, "{a}/{b}");
            }
        }
    }
}
