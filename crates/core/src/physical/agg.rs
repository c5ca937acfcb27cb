//! Aggregation operator bodies: per-page pipelines (`FusedAgg`,
//! `DecodeScan → Filter → PartialAgg`), the §III-C symbolic slice
//! partials, and the SIMD fold kernels they share.
//!
//! The strategy a page runs is no longer chosen here: the `Pipe` planner
//! ([`crate::physical::pipe`]) picks a [`Strategy`] per page from header
//! statistics, and [`agg_page_job`] dispatches on that decision (with
//! [`Strategy::Decode`] as the sound fallback whenever a runtime check —
//! e.g. the resolved index range — falls outside what a fused form
//! handles).

use etsqp_encoding::{delta_rle, stream_vbyte, ts2diff, Encoding};
use etsqp_simd::agg::AggState;
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

use crate::exec::ExecStats;
use crate::expr::{AggFunc, Predicate, SlidingWindow, TimeRange};
use crate::fused::{aggregate_delta_rle, sum_svb, sum_ts2diff, sum_ts2diff_range, FuseLevel};
use crate::partial::{CacheKey, PartialCache, PartialState};
use crate::physical::node::{Stage, Strategy};
use crate::physical::scan::{charge_page_io, decode_ts_column, decode_val_column};
use crate::physical::window::{constant_positions, whole_page_bucket, window_index_ranges};
use crate::plan::PipelineConfig;
use crate::slice::slice_range;
use crate::{Error, Result};

/// Partial aggregate states keyed by window index (0 when unwindowed).
pub(crate) type WindowStates = Vec<(usize, PartialState)>;

/// True when the page's value spread `max − min` is representable in
/// `i64`, which guarantees every pairwise difference — in particular
/// every encoded delta — equals the true mathematical difference.
///
/// The fused closed forms (§IV) and the slice-coefficient chain (§III-C)
/// sum *stored deltas* symbolically in `i128`; that widening is only
/// exact when the deltas did not wrap at encode time. The decode paths
/// are immune (their wrapping adds reproduce each value bit-exactly), so
/// pages failing this check simply fall back to decode-then-aggregate.
/// Regression: `overflow_audit.rs` (values spanning more than `i64::MAX`
/// used to wrap SUM on the sliced and fused paths).
pub(crate) fn spread_fits_i64(page: &Page) -> bool {
    page.header
        .max_value
        .checked_sub(page.header.min_value)
        .is_some()
}

/// Whether the fused path can produce what `func` needs without decode.
pub(crate) fn fusion_covers(func: AggFunc, val_enc: Encoding, fuse: FuseLevel) -> bool {
    // Quantile sketches and rate/delta need per-tuple values and
    // timestamps; no closed form over (Δ, run-length) pairs produces
    // them. This gate must stay ahead of the per-encoding arms — the
    // Delta-RLE arm below claims *all* remaining functions.
    if func.partial_only() {
        return false;
    }
    match val_enc {
        Encoding::Ts2Diff => {
            fuse >= FuseLevel::Delta && matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count)
        }
        Encoding::DeltaRle => fuse >= FuseLevel::DeltaRepeat,
        // Stream VByte stores length-coded deltas: fusing skips the
        // prefix sum (the Delta decoder), same family as TS2DIFF.
        Encoding::StreamVByte => {
            fuse >= FuseLevel::Delta && matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count)
        }
        _ => false,
    }
}

/// Folds a dense slice into the state, computing only what `func` needs
/// (Σx² is expensive and only VARIANCE reads it; MIN/MAX skip sums).
pub(crate) fn agg_slice(state: &mut AggState, slice: &[i64], func: AggFunc) {
    if slice.is_empty() {
        return;
    }
    match func {
        AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
            state.sum += etsqp_simd::agg::sum_i64(slice);
            state.count += slice.len() as u64;
        }
        AggFunc::Min | AggFunc::Max => {
            if let Some((mn, mx)) = etsqp_simd::agg::min_max_i64(slice) {
                state.min = Some(state.min.map_or(mn, |m| m.min(mn)));
                state.max = Some(state.max.map_or(mx, |m| m.max(mx)));
            }
            state.count += slice.len() as u64;
        }
        AggFunc::Variance => state.push_slice(slice),
        AggFunc::First | AggFunc::Last => {
            state.first.get_or_insert(slice[0]);
            state.last = slice.last().copied().or(state.last);
            state.count += slice.len() as u64;
        }
        // Partial-only aggregates take the tuple-level path (they need
        // timestamps and/or a sketch); fold the exact moments anyway so
        // a planner slip degrades to a sound superset, never silence.
        AggFunc::P50 | AggFunc::P95 | AggFunc::P99 | AggFunc::Rate | AggFunc::Delta => {
            state.push_slice(slice)
        }
    }
}

/// Mask-filtered variant of [`agg_slice`].
pub(crate) fn agg_masked(state: &mut AggState, slice: &[i64], mask: &[u64], func: AggFunc) {
    match func {
        AggFunc::Sum | AggFunc::Avg | AggFunc::Count => {
            let (s, c) = etsqp_simd::agg::masked_sum_i64(slice, mask);
            state.sum += s;
            state.count += c;
        }
        AggFunc::Min | AggFunc::Max => {
            if let Some((mn, mx)) = etsqp_simd::agg::masked_min_max_i64(slice, mask) {
                state.min = Some(state.min.map_or(mn, |m| m.min(mn)));
                state.max = Some(state.max.map_or(mx, |m| m.max(mx)));
            }
            state.count += etsqp_simd::filter::count_mask(mask, slice.len());
        }
        AggFunc::Variance => state.push_masked(slice, mask),
        AggFunc::First | AggFunc::Last => {
            for (i, &v) in slice.iter().enumerate() {
                if mask[i / 64] & (1u64 << (i % 64)) != 0 {
                    state.first.get_or_insert(v);
                    state.last = Some(v);
                    state.count += 1;
                }
            }
        }
        // See agg_slice: unreachable for partial-only aggregates.
        AggFunc::P50 | AggFunc::P95 | AggFunc::P99 | AggFunc::Rate | AggFunc::Delta => {
            state.push_masked(slice, mask)
        }
    }
}

/// Symbolic partial of a slice over a TS2DIFF value column: every term is
/// expressed relative to the unknown slice-start value `v_pre`, so slice
/// jobs never wait on each other's prefix sums (§III-C / Fig. 14(c)).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SliceCoeff {
    /// Values covered by the slice.
    len: u64,
    /// Σ rel_k where `rel_k = v_k − v_pre`.
    rel_sum: i128,
    /// Σ rel_k².
    rel_sq: i128,
    /// min rel_k.
    rel_min: i64,
    /// max rel_k.
    rel_max: i64,
    /// `v_first − v_pre` (the slice's first covered value, relative).
    rel_first: i64,
    /// `v_last − v_pre`: carried into the next slice's `v_pre`.
    pub(crate) delta_total: i64,
    /// The page's first value (meaningful on part 0; seeds the chain).
    pub(crate) first_value: i64,
}

impl SliceCoeff {
    /// Resolves the symbolic partial against the now-known `v_pre` and
    /// folds it into `state` — the prefix-stitching merge node.
    pub(crate) fn fold_into(&self, state: &mut AggState, v_pre: i128) {
        if self.len == 0 {
            return;
        }
        let n = self.len as i128;
        state.sum += n * v_pre + self.rel_sum;
        state.sum_sq = state.sum_sq.saturating_add(
            n.saturating_mul(v_pre.saturating_mul(v_pre))
                .saturating_add((2 * v_pre).saturating_mul(self.rel_sum))
                .saturating_add(self.rel_sq),
        );
        state.count += self.len;
        let lo = (v_pre + self.rel_min as i128) as i64;
        let hi = (v_pre + self.rel_max as i128) as i64;
        state.min = Some(state.min.map_or(lo, |m| m.min(lo)));
        state.max = Some(state.max.map_or(hi, |m| m.max(hi)));
        state
            .first
            .get_or_insert((v_pre + self.rel_first as i128) as i64);
        state.last = Some((v_pre + self.delta_total as i128) as i64);
    }
}

/// Slice phase-1 job: unpack the slice's delta range and summarize it
/// relative to the unknown start value.
pub(crate) fn slice_coeff_job(
    page: &Page,
    part: usize,
    parts: usize,
    stats: &ExecStats,
    store: &SeriesStore,
) -> Result<SliceCoeff> {
    if part == 0 {
        charge_page_io(page, stats, store);
    }
    // Slice jobs unpack chunk bytes directly; reject corrupt payloads
    // before the symbolic coefficients are built from them. Part 0 is
    // enough: every part of a page runs, and one failure aborts the
    // query.
    if part == 0 {
        page.verify().map_err(Error::Storage)?;
    }
    let parsed = ts2diff::parse(&page.val_bytes)?;
    let count = parsed.count;
    let (lo, hi) = slice_range(count, part, parts);
    if lo >= hi {
        return Ok(SliceCoeff {
            first_value: parsed.first[0],
            ..Default::default()
        });
    }
    // Deltas connecting the slice's values: indices (max(lo,1)−1)..(hi−1).
    let d_lo = lo.saturating_sub(1);
    let d_hi = hi.saturating_sub(1);
    let n_deltas = d_hi - d_lo;
    let mut stored = vec![0u64; n_deltas];
    {
        let _u = Stage::Unpack.timer(stats);
        etsqp_simd::unpack::unpack_u64(
            parsed.payload,
            d_lo * parsed.width as usize,
            parsed.width,
            &mut stored,
        );
    }
    let _d = Stage::Delta.timer(stats);
    let mut coeff = SliceCoeff {
        first_value: parsed.first[0],
        ..Default::default()
    };
    let mut rel: i64 = 0;
    let push = |r: i64, c: &mut SliceCoeff| {
        c.len += 1;
        c.rel_sum += r as i128;
        c.rel_sq = c.rel_sq.saturating_add((r as i128) * (r as i128));
        if c.len == 1 {
            c.rel_min = r;
            c.rel_max = r;
            c.rel_first = r;
        } else {
            c.rel_min = c.rel_min.min(r);
            c.rel_max = c.rel_max.max(r);
        }
    };
    if lo == 0 {
        // Value 0 itself has rel 0.
        push(0, &mut coeff);
    }
    for &s in &stored {
        rel = rel.wrapping_add(parsed.min_delta.wrapping_add(s as i64));
        push(rel, &mut coeff);
    }
    coeff.delta_total = rel;
    Ok(coeff)
}

/// The per-page aggregation pipeline, executing the planner's
/// [`Strategy`]. Returns partial states keyed by window index (0 when
/// unwindowed).
///
/// `cacheable` is the planner's [`crate::physical::node::PageDecision::cacheable`]
/// verdict: the page's whole-range partial is content-addressed in the
/// global [`PartialCache`]. The hit path still charges I/O and
/// re-verifies the page checksum first (the cache-obligation
/// invariant), so a cached entry can never stand in for corrupted
/// bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_page_job(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    strategy: Strategy,
    cacheable: bool,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    store: &SeriesStore,
) -> Result<WindowStates> {
    charge_page_io(page, stats, store);
    // Every non-serial strategy below reads chunk bytes without going
    // through the checksum-verified Page::decode — the fused closed
    // forms would otherwise turn corruption into a silently wrong
    // aggregate rather than an error. The checksum re-verification also
    // discharges the cache hit path: the cache key embeds this checksum.
    page.verify().map_err(Error::Storage)?;

    // The planner only marks pages cacheable when the whole page
    // qualifies and lands in one bucket; re-derive the bucket index
    // defensively (a straddling page just skips the cache).
    let cached_bucket = if cacheable {
        whole_page_bucket(page, window).map(|k| (k, CacheKey::for_page(page, func)))
    } else {
        None
    };
    if let Some((k, key)) = &cached_bucket {
        if let Some(state) = PartialCache::global().get(key) {
            stats
                .cache_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if state.agg.count == 0 {
                return Ok(Vec::new());
            }
            return Ok(vec![(*k, state)]);
        }
        stats
            .cache_misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    let out = agg_page_states(page, pred, window, func, strategy, cfg, stats)?;
    if let Some((_, key)) = cached_bucket {
        // Cache-eligible pages aggregate whole-page into one bucket, so
        // `out` holds at most one state; an empty page caches an empty
        // partial (served as "no states" above).
        let state = out
            .first()
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| PartialState::new(func));
        PartialCache::global().insert(key, state);
    }
    Ok(out)
}

/// Strategy dispatch body of [`agg_page_job`] (everything after the I/O
/// charge, checksum verification and cache probe).
fn agg_page_states(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    strategy: Strategy,
    cfg: &PipelineConfig,
    stats: &ExecStats,
) -> Result<WindowStates> {
    if strategy == Strategy::Serial {
        return serial_agg_page(page, pred, window, func, stats);
    }

    let count = page.header.count as usize;
    let trange = pred.time.unwrap_or_else(TimeRange::all);

    // ---- Resolve the qualifying positions from the timestamp column ----
    // Ordered timestamps make every time filter an index range [a, b].
    let mut ts_decoded: Option<Vec<i64>> = None;
    let (a, b) = if pred.time.is_none() && window.is_none() {
        (0usize, count.saturating_sub(1))
    } else {
        let wide = match window {
            // Windows only constrain below by t_min; combine with filter.
            Some(w) => TimeRange {
                lo: w.t_min,
                hi: i64::MAX,
            }
            .intersect(&trange),
            None => trange,
        };
        match constant_positions(page, wide.lo, wide.hi) {
            Some(Some(range)) => range,
            Some(None) => return Ok(Vec::new()), // constant interval, no overlap
            None => {
                let range = {
                    let _f = Stage::Filter.timer(stats);
                    let ts = decode_ts_column(page, cfg, stats)?;
                    let a = ts.partition_point(|&t| t < wide.lo);
                    let b = ts.partition_point(|&t| t <= wide.hi);
                    if a >= b {
                        None
                    } else {
                        ts_decoded = Some(ts);
                        Some((a, b - 1))
                    }
                };
                match range {
                    Some(r) => r,
                    None => return Ok(Vec::new()),
                }
            }
        }
    };

    // ---- The planner's fused strategies (FusedAgg node) --------------
    match strategy {
        Strategy::FusedTs2Diff if window.is_none() => {
            let parsed = ts2diff::parse(&page.val_bytes)?;
            let _a = Stage::Agg.timer(stats);
            let state = if a == 0 && b + 1 == count {
                sum_ts2diff(&parsed, &cfg.decode)?
            } else {
                sum_ts2diff_range(&parsed, a, b, &cfg.decode)?
            };
            return Ok(vec![(0, state.into())]);
        }
        // Delta-RLE fusion, SVB fusion and header MIN/MAX are whole-page
        // forms; the planner chose them from exact header bounds (for a
        // windowed aggregate additionally proving the page lies inside
        // one bucket), but both conditions are re-checked so any
        // mismatch falls through to the decode path below.
        Strategy::FusedDeltaRle if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let parsed = delta_rle::parse(&page.val_bytes)?;
                let _a = Stage::Agg.timer(stats);
                return Ok(vec![(k, aggregate_delta_rle(&parsed)?.into())]);
            }
        }
        Strategy::FusedSvb if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let parsed = stream_vbyte::parse(&page.val_bytes)?;
                let _a = Stage::Agg.timer(stats);
                return Ok(vec![(k, sum_svb(&parsed, &cfg.decode)?.into())]);
            }
        }
        Strategy::HeaderMinMax if a == 0 && b + 1 == count => {
            if let Some(k) = whole_page_bucket(page, window) {
                let mut s = AggState::new();
                s.count = count as u64;
                s.min = Some(page.header.min_value);
                s.max = Some(page.header.max_value);
                return Ok(vec![(k, s.into())]);
            }
        }
        // Windowed fused path: resolve each window's index subrange
        // (constant-interval arithmetic or binary search over decoded
        // timestamps), then aggregate every subrange in closed form over
        // the packed deltas — no value decode.
        Strategy::FusedTs2Diff => {
            let Some(w) = window else {
                return Err(Error::Plan("windowed fused strategy without window".into()));
            };
            let ranges = window_index_ranges(page, &w, &trange, a, b, ts_decoded.as_deref())?;
            let parsed = ts2diff::parse(&page.val_bytes)?;
            let _a = Stage::Agg.timer(stats);
            let mut out: WindowStates = Vec::with_capacity(ranges.len());
            for (k, i, j) in ranges {
                let state = if i == 0 && j + 1 == count {
                    sum_ts2diff(&parsed, &cfg.decode)?
                } else {
                    sum_ts2diff_range(&parsed, i, j, &cfg.decode)?
                };
                if state.count > 0 {
                    out.push((k, state.into()));
                }
            }
            return Ok(out);
        }
        _ => {}
    }

    // ---- General path: decode values (DecodeScan → Filter → PartialAgg)
    let vals = decode_val_column(page, pred, cfg, stats)?;
    let vals = match vals {
        Some(v) => v,
        None => return Ok(Vec::new()), // fully pruned during scan
    };
    if a >= vals.len() {
        // The qualifying index range lies entirely in the pruned suffix —
        // sound because pruned elements provably fail the value filter.
        return Ok(Vec::new());
    }

    let _a = Stage::Agg.timer(stats);

    // Partial-only aggregates (quantile sketches, rate/delta) fold
    // tuple-at-a-time with timestamps — this is the "straddling pages
    // decode" leg of the bucket pipeline.
    if func.partial_only() {
        let ts_owned;
        let ts: &[i64] = match &ts_decoded {
            Some(t) => t,
            None => {
                ts_owned = decode_ts_column(page, cfg, stats)?;
                &ts_owned
            }
        };
        let hi = b.min(vals.len() - 1).min(ts.len().saturating_sub(1));
        let mut windows: std::collections::BTreeMap<usize, PartialState> =
            std::collections::BTreeMap::new();
        for (&t, &v) in ts[a..=hi].iter().zip(&vals[a..=hi]) {
            if let Some((vlo, vhi)) = pred.value {
                if v < vlo || v > vhi {
                    continue;
                }
            }
            let k = match window {
                Some(w) => match w.window_of(t) {
                    Some(k) => k,
                    None => continue,
                },
                None => 0,
            };
            windows
                .entry(k)
                .or_insert_with(|| PartialState::new(func))
                .push_tv(t, v);
        }
        return Ok(windows.into_iter().collect());
    }

    let mut out: WindowStates = Vec::new();
    match window {
        None => {
            let mut state = AggState::new();
            match pred.value {
                None => agg_slice(&mut state, &vals[a..=b.min(vals.len() - 1)], func),
                Some((vlo, vhi)) => {
                    let hi = b.min(vals.len() - 1);
                    let slice = &vals[a..=hi];
                    let mut mask = etsqp_simd::filter::new_mask(slice.len());
                    etsqp_simd::filter::range_mask_i64(slice, vlo, vhi, &mut mask);
                    agg_masked(&mut state, slice, &mask, func);
                }
            }
            if state.count > 0 {
                out.push((0, state.into()));
            }
        }
        Some(w) => {
            // Split [a, b] into per-window index subranges via the
            // timestamp column (decoded or constant-interval).
            let ts_owned;
            let ts: &[i64] = match &ts_decoded {
                Some(t) => t,
                None => {
                    ts_owned = decode_ts_column(page, cfg, stats)?;
                    &ts_owned
                }
            };
            let mut i = a;
            let hi = b.min(vals.len() - 1);
            while i <= hi {
                let Some(k) = w.window_of(ts[i]) else {
                    i += 1;
                    continue;
                };
                let wrange = w.range(k).intersect(&trange);
                // End of this window's run of indices.
                let mut j = i;
                while j <= hi && wrange.contains(ts[j]) {
                    j += 1;
                }
                if j > i {
                    let slice = &vals[i..j];
                    let mut state = AggState::new();
                    match pred.value {
                        None => agg_slice(&mut state, slice, func),
                        Some((vlo, vhi)) => {
                            let mut mask = etsqp_simd::filter::new_mask(slice.len());
                            etsqp_simd::filter::range_mask_i64(slice, vlo, vhi, &mut mask);
                            agg_masked(&mut state, slice, &mask, func);
                        }
                    }
                    if state.count > 0 {
                        out.push((k, state.into()));
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Byte-serial per-value pipeline — the "Serial"/"IoTDB" baseline: decode
/// value-at-a-time with the reference decoders, branch per tuple.
fn serial_agg_page(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    stats: &ExecStats,
) -> Result<WindowStates> {
    let (ts, vals) = {
        let _d = Stage::Delta.timer(stats);
        page.decode().map_err(Error::Storage)?
    };
    stats.materialized_bytes.fetch_add(
        (ts.len() + vals.len()) as u64 * 8,
        std::sync::atomic::Ordering::Relaxed,
    );
    let _a = Stage::Agg.timer(stats);
    let mut windows: std::collections::BTreeMap<usize, PartialState> =
        std::collections::BTreeMap::new();
    for (&t, &v) in ts.iter().zip(&vals) {
        if let Some(tr) = pred.time {
            if !tr.contains(t) {
                continue;
            }
        }
        if let Some((lo, hi)) = pred.value {
            if v < lo || v > hi {
                continue;
            }
        }
        let k = match window {
            Some(w) => match w.window_of(t) {
                Some(k) => k,
                None => continue,
            },
            None => 0,
        };
        windows
            .entry(k)
            .or_insert_with(|| PartialState::new(func))
            .push_tv(t, v);
    }
    Ok(windows.into_iter().collect())
}
