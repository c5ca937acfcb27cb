//! Partializable aggregate states: the mergeable per-page/per-bucket
//! partials behind `GROUP BY time(..)`, `rate()`/`delta()` and the
//! sketch-based `p50/p95/p99` quantiles, plus [`PartialCache`], the
//! handle on the memos whole-page and whole-segment answers are served
//! from (`Page::moments`, `Segment::moments`, `Segment::digest`).
//!
//! The paper's §IV closed-form polynomials already compute page-local
//! moments without decoding — exactly a partial aggregate. This module
//! makes that notion explicit: a [`PartialState`] wraps the exact
//! moments ([`AggState`]) with the first/last *timestamps* (for
//! `rate()`/`delta()`) and an optional [`TDigest`] quantile sketch, and
//! merges **in time order** (the same discipline the driver already
//! follows: sealed pages in storage order, hot chunk last).
//!
//! Merge algebra (property-tested in `tests/partial_properties.rs`):
//!
//! * all exact fields are associative; sums/counts/min/max are also
//!   commutative, FIRST/LAST and the timestamp bounds are
//!   order-sensitive (time-ordered merging keeps them exact);
//! * the empty partial is a two-sided identity, bit for bit (an empty
//!   digest merge never re-clusters);
//! * t-digest quantiles are *approximate*: for compression `δ =`
//!   [`TDIGEST_COMPRESSION`], the rank error of `quantile(q)` against
//!   the exact sorted ranks stays within [`TDigest::rank_error_bound`]
//!   (`3·n/δ + 2`), regardless of how the input was split into merged
//!   partials.

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_simd::agg::AggState;
use etsqp_storage::page::{forget_all_moments, live_memos};
pub use etsqp_storage::segment::Centroid;
use etsqp_storage::segment::SegmentDigest;

use crate::expr::AggFunc;

/// t-digest compression factor `δ`: the sketch keeps roughly `δ..2δ`
/// centroids after compression, giving a worst-case rank error that
/// shrinks toward the distribution tails (where p95/p99 live).
pub const TDIGEST_COMPRESSION: usize = 100;

/// Uncompressed centroids accumulate up to this many before a merge
/// pass runs (amortizes the sort; bounds transient memory).
const TDIGEST_BUFFER: usize = 4 * TDIGEST_COMPRESSION;

/// Clustering threshold for [`TDigest::merge`], deliberately larger
/// than the push-path buffer: the cross-page merge chain appends one
/// compressed (~2δ-centroid) block per page, and clustering after every
/// block would re-traverse the whole accumulator per merge. 64 KiB of
/// transient centroids buys an amortized-linear chain.
const TDIGEST_MERGE_BUFFER: usize = 4096;

/// A merging t-digest (Dunning): an ordered list of weighted centroids
/// whose per-cluster weight is capped by `4·n·q(1−q)/δ`, so clusters
/// near the tails stay tiny and extreme quantiles stay sharp.
///
/// Determinism: compression sorts with `f64::total_cmp` (stable) and
/// merges in one sequential pass, so the same push/merge sequence always
/// yields the same centroids — required by the differential oracle and
/// the segment digests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TDigest {
    /// Centroids; the first `len − unsorted` are sorted and compressed,
    /// the tail is a raw append buffer.
    centroids: Vec<Centroid>,
    /// Trailing raw (possibly unsorted) centroids.
    unsorted: usize,
    /// Total weight across all centroids.
    count: u64,
    /// Exact minimum pushed value (valid when `count > 0`).
    min: f64,
    /// Exact maximum pushed value (valid when `count > 0`).
    max: f64,
}

impl TDigest {
    /// An empty sketch.
    pub fn new() -> Self {
        TDigest::default()
    }

    /// Total weight (number of pushed values).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The centroids: the compressed run, then the raw append buffer.
    pub fn centroids(&self) -> &[Centroid] {
        &self.centroids
    }

    /// Exact minimum pushed value, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum pushed value, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The documented worst-case rank error of [`TDigest::quantile`]
    /// for a sketch over `n` values: `3·n/δ + 2` ranks. (Measured error
    /// is typically `n/δ`; the slack covers repeated partial merges.)
    pub fn rank_error_bound(n: u64) -> f64 {
        3.0 * n as f64 / TDIGEST_COMPRESSION as f64 + 2.0
    }

    /// Pushes one value. Non-finite values are ignored (the engine only
    /// pushes integer-valued samples; the guard keeps hostile merges
    /// from poisoning the means).
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.centroids.push(Centroid { mean: v, weight: 1 });
        self.unsorted += 1;
        self.count += 1;
        if self.centroids.len() >= TDIGEST_BUFFER {
            self.compress();
        }
    }

    /// Merges `other` into `self`. Merging an empty sketch is a no-op
    /// (bit-for-bit identity — the property tests rely on this).
    pub fn merge(&mut self, other: &TDigest) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        // Append the incoming block and defer clustering: the driver's
        // warm-cache path merges one ~2δ-centroid partial per page, and
        // re-clustering the whole accumulator on every merge made the
        // chain quadratic. The larger merge buffer amortizes clustering
        // to O(total/TDIGEST_MERGE_BUFFER) passes, and the stable sort
        // in [`TDigest::compress`] is near-linear on the concatenation
        // of already-sorted runs cached partials produce.
        self.centroids.extend_from_slice(&other.centroids);
        self.unsorted += other.centroids.len();
        self.count += other.count;
        if self.centroids.len() >= TDIGEST_MERGE_BUFFER {
            self.compress();
        }
    }

    /// Sorts and re-clusters the centroids under the `4·n·q(1−q)/δ`
    /// per-cluster weight cap. Deterministic: stable sort by
    /// `total_cmp`, one sequential merging pass.
    pub fn compress(&mut self) {
        if self.centroids.len() <= 1 {
            self.unsorted = 0;
            return;
        }
        if self.unsorted > 0 {
            self.centroids.sort_by(|a, b| a.mean.total_cmp(&b.mean));
        }
        let total = self.count as f64;
        let delta = TDIGEST_COMPRESSION as f64;
        let mut out: Vec<Centroid> = Vec::with_capacity(self.centroids.len().min(512));
        let mut iter = self.centroids.iter();
        // `len > 1` above guarantees a first centroid.
        let Some(first) = iter.next() else {
            self.unsorted = 0;
            return;
        };
        let mut acc = *first;
        let mut w_before = 0.0f64;
        for c in iter {
            let merged = acc.weight.saturating_add(c.weight);
            let q = (w_before + merged as f64 / 2.0) / total;
            let cap = (4.0 * total * q * (1.0 - q) / delta).max(1.0);
            if (merged as f64) <= cap {
                let wa = acc.weight as f64;
                let wc = c.weight as f64;
                acc.mean = (acc.mean * wa + c.mean * wc) / (wa + wc);
                acc.weight = merged;
            } else {
                w_before += acc.weight as f64;
                out.push(acc);
                acc = *c;
            }
        }
        out.push(acc);
        self.centroids = out;
        self.unsorted = 0;
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`). Returns
    /// `NaN` on an empty sketch; otherwise the covering centroid's mean
    /// clamped into the exact `[min, max]` envelope.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.unsorted > 0 {
            let mut c = self.clone();
            c.compress();
            return c.quantile_sorted(q);
        }
        self.quantile_sorted(q)
    }

    fn quantile_sorted(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0f64;
        let last = self.centroids.len().saturating_sub(1);
        for (i, c) in self.centroids.iter().enumerate() {
            let w = c.weight as f64;
            if cum + w >= target || i == last {
                return c.mean.clamp(self.min, self.max);
            }
            cum += w;
        }
        self.max
    }
}

/// A compressed digest as a segment keeps it.
impl From<&TDigest> for SegmentDigest {
    fn from(d: &TDigest) -> Self {
        debug_assert_eq!(d.unsorted, 0, "a segment keeps a compressed digest");
        SegmentDigest {
            centroids: d.centroids.clone(),
            count: d.count,
            min: d.min,
            max: d.max,
        }
    }
}

/// The digest a segment keeps, bit for bit the one it was taken from.
impl From<&SegmentDigest> for TDigest {
    fn from(d: &SegmentDigest) -> Self {
        TDigest {
            centroids: d.centroids.clone(),
            unsorted: 0,
            count: d.count,
            min: d.min,
            max: d.max,
        }
    }
}

/// Real-valued Σ and Σ² of a float series' values.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealMoments {
    /// Σ v.
    pub sum: f64,
    /// Σ v².
    pub sum_sq: f64,
}

/// A mergeable partial aggregate state: the exact moments plus the
/// timestamp bounds (`rate`/`delta`) and the optional quantile sketch.
/// [`PartialState::merge`] must be called **in time order** — the same
/// contract [`AggState::merge`] already documents for FIRST/LAST.
///
/// A float series' state folds the values' ordered keys into `agg`
/// (COUNT, MIN, MAX, FIRST, LAST in key order) and the real values into
/// `real` and the digest. Its SUM / AVG / VARIANCE therefore depend on
/// the merge order, which the driver fixes: each page from zero, pages
/// in storage order, hot values pushed last.
#[derive(Debug, Clone, Default)]
pub struct PartialState {
    /// Exact first-order/second-order moments, min/max, first/last.
    pub agg: AggState,
    /// Real-valued moments: `Some` exactly on a float series' state.
    pub real: Option<RealMoments>,
    /// Timestamp of the first qualifying tuple (set on tuple-level
    /// paths; fused whole-page paths leave it `None` — only
    /// `rate()`/`delta()` read it, and those never fuse).
    pub first_ts: Option<i64>,
    /// Timestamp of the last qualifying tuple.
    pub last_ts: Option<i64>,
    /// Quantile sketch; allocated only when the aggregate needs it.
    pub digest: Option<TDigest>,
}

impl PartialState {
    /// An empty partial shaped for `func`: the digest is allocated only
    /// for quantile aggregates.
    pub fn new(func: AggFunc) -> Self {
        PartialState {
            digest: func.needs_digest().then(TDigest::new),
            ..PartialState::default()
        }
    }

    /// [`PartialState::new`] for a float series (`float`): `real` set.
    pub fn new_for(func: AggFunc, float: bool) -> Self {
        PartialState {
            real: float.then(RealMoments::default),
            ..PartialState::new(func)
        }
    }

    /// Folds one qualifying tuple, tracking timestamps and the sketch; on
    /// a float state `v` is an ordered key and its real value feeds the
    /// real moments and the sketch.
    pub fn push_tv(&mut self, t: i64, v: i64) {
        self.agg.push(v);
        self.first_ts.get_or_insert(t);
        self.last_ts = Some(t);
        let x = self.real.map_or(v as f64, |_| ordered_i64_to_f64(v));
        if let Some(r) = &mut self.real {
            r.sum += x;
            r.sum_sq += x * x;
        }
        if let Some(d) = &mut self.digest {
            d.push(x);
        }
    }

    /// Merges `other` after `self` in time order. Exact fields combine
    /// exactly; an empty `other` is a bit-for-bit no-op.
    pub fn merge(&mut self, other: &PartialState) {
        if other.agg.count == 0 {
            return;
        }
        self.agg.merge(&other.agg);
        match (&mut self.real, other.real) {
            (Some(a), Some(b)) => {
                a.sum += b.sum;
                a.sum_sq += b.sum_sq;
            }
            (r @ None, b) => *r = b,
            _ => {}
        }
        if self.first_ts.is_none() {
            self.first_ts = other.first_ts;
        }
        if other.last_ts.is_some() {
            self.last_ts = other.last_ts;
        }
        match (&mut self.digest, &other.digest) {
            (Some(a), Some(b)) => a.merge(b),
            (d @ None, Some(b)) => *d = Some(b.clone()),
            _ => {}
        }
    }
}

impl From<AggState> for PartialState {
    fn from(agg: AggState) -> Self {
        PartialState {
            agg,
            ..PartialState::default()
        }
    }
}

/// The handle on the memos whole-page and whole-segment partials are
/// served from, which live on the resident pages and segments
/// themselves: a page's moments, a segment's moments and its quantile
/// digest, all tagged with one process-wide epoch. It holds no state of
/// its own. `EXPLAIN` renders the static `[cacheable]` eligibility and
/// [`crate::exec::ExecStats`] counts the live hits/misses (EXPLAIN text
/// must stay a pure function of the plan).
#[derive(Debug)]
pub struct PartialCache;

impl PartialCache {
    /// The process-global instance.
    pub fn global() -> &'static PartialCache {
        &PartialCache
    }

    /// Live page memos plus live segment digests.
    pub fn len(&self) -> usize {
        live_memos()
    }

    /// Whether no page memo and no segment digest is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every memo and digest at once, by bumping the epoch
    /// (benchmark cold-start; tests).
    pub fn clear(&self) {
        forget_all_moments();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(vals: &[i64]) -> TDigest {
        let mut d = TDigest::new();
        for &v in vals {
            d.push(v as f64);
        }
        d
    }

    #[test]
    fn tdigest_quantile_within_rank_bound() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 4999).collect();
        let d = digest_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let est = d.quantile(q);
            let rank = sorted.partition_point(|&v| (v as f64) <= est) as f64;
            let target = q * sorted.len() as f64;
            let bound = TDigest::rank_error_bound(sorted.len() as u64);
            assert!(
                (rank - target).abs() <= bound,
                "q={q}: est={est} rank={rank} target={target} bound={bound}"
            );
        }
    }

    #[test]
    fn empty_merge_is_identity() {
        let mut d = digest_of(&[1, 2, 3]);
        let before = d.clone();
        d.merge(&TDigest::new());
        assert_eq!(d, before);
        let mut empty = TDigest::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn a_segment_keeps_a_compressed_digest_bit_for_bit() {
        let mut d = digest_of(&(0..3000).map(|i| (i * 7919) % 1013).collect::<Vec<_>>());
        d.compress();
        let kept = SegmentDigest::from(&d);
        assert_eq!(TDigest::from(&kept), d);
    }
}
