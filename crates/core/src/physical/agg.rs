//! Aggregation operator bodies: the per-page pipeline
//! (`DecodeScan → Filter → PartialAgg`) and the folds it ends in
//! ([`FoldCursor`] over the encoded column, [`fold_values`] over decoded
//! values, [`fold_tuples`] over `(t, v)` pairs).
//!
//! A page aggregates in one shape — qualifying index range → bucket
//! subranges → one fold per bucket into a [`PartialState`] — and a
//! whole-range aggregate is the one-bucket case of it (`window = None`).
//! The planner ([`crate::physical::pipe`]) plans every kept page
//! [`Strategy::Decode`] (`Strategy::Serial` on the byte-serial engine),
//! and a page is answered in the first of three ways that applies:
//!
//! 1. header plus memo ([`memoized`]), on the driver's thread, or in the
//!    page's job right after its first hash: a `[cacheable]`,
//!    checksum-verified page answers COUNT, MIN and MAX from its exact
//!    header alone, and the other exact aggregates once a whole-page fold
//!    memoized the moments they rest on (a quantile never: no page keeps
//!    a digest);
//! 2. else one cursor fold ([`agg_page_job`]), where the cursor's gate
//!    admits the column — FIRST / LAST too when no value conjunct is
//!    left;
//! 3. else decode, then fold.
//!
//! A page runs under its residual predicate, taken once its checksum is
//! verified: the conjuncts its header does not prove. A page its filter
//! covers therefore folds every tuple, with no filter at all, and a
//! `[cacheable]` page's fold memoizes the groups of whole-page moments it
//! computed ([`Page::memoize`]).
//!
//! One level up, a cacheable segment answers from its union header and
//! its memo ([`memoized_segment`]): the moments its pages memoized, and
//! for a quantile the digest of the segment's one merge group, which the
//! driver's merge node sets (`Segment::memoize_digest`).

use std::sync::atomic::Ordering;
use std::time::Instant;

use etsqp_simd::agg::AggState;
use etsqp_storage::page::{Page, PageHeader, PageMoments};
use etsqp_storage::segment::Segment;
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::decode_fold::{fold_values, FoldCursor};
use crate::exec::ExecStats;
use crate::expr::{AggFunc, Predicate, SlidingWindow, TimeRange};
use crate::partial::{PartialState, TDigest};
use crate::physical::node::{SeriesPipeline, Stage, Strategy};
use crate::physical::scan::{decode_ts_column, decode_val_column};
use crate::physical::window::{constant_positions, for_each_window_range, whole_page_bucket};
use crate::plan::PipelineConfig;
use crate::{Error, Result};

/// Partial aggregate states keyed by window index (0 when unwindowed),
/// ascending.
pub(crate) type WindowStates = Vec<(usize, PartialState)>;

/// A dispatched page: the page, its planned strategy, and whether it is
/// `[cacheable]`.
pub(crate) type PageJob<'a> = (&'a Page, Strategy, bool);

/// The state of bucket `k` in `windows`, created by `init` if absent.
/// Time-ordered input mostly extends the last bucket, so that is looked
/// at first; any other is found, or inserted, by binary search, so
/// `windows` stays sorted whatever order arrives.
pub(crate) fn bucket_mut(
    windows: &mut WindowStates,
    k: usize,
    init: impl FnOnce() -> PartialState,
) -> &mut PartialState {
    let at = match windows.last().map(|w| w.0) {
        Some(last) if last == k => windows.len() - 1,
        _ => windows
            .binary_search_by_key(&k, |w| w.0)
            .unwrap_or_else(|at| {
                windows.insert(at, (k, init()));
                at
            }),
    };
    &mut windows[at].1
}

/// Merges each of `states` into its bucket of `windows`, after what that
/// holds: [`PartialState::merge`]'s time order.
pub(crate) fn merge_states(windows: &mut WindowStates, states: &[(usize, PartialState)]) {
    for (k, state) in states {
        bucket_mut(windows, *k, PartialState::default).merge(state);
    }
}

/// Folds time-ordered tuples that pass `pred` into their buckets' states
/// (bucket 0 when unwindowed), tuple at a time with timestamps — what
/// quantile sketches and rate/delta need, what the byte-serial baseline
/// and a float page are, and how the driver folds the hot chunk. States
/// already in `windows` keep accumulating, so a sketch sees one push
/// sequence; a new one is a float series' state when `float`.
pub(crate) fn fold_tuples(
    ts: &[i64],
    vals: &[i64],
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    float: bool,
    windows: &mut WindowStates,
) {
    for (&t, &v) in ts.iter().zip(vals) {
        if pred.time.is_some_and(|tr| !tr.contains(t))
            || pred.value.is_some_and(|(lo, hi)| v < lo || v > hi)
        {
            continue;
        }
        let k = match window {
            Some(w) => match w.window_of(t) {
                Some(k) => k,
                None => continue,
            },
            None => 0,
        };
        bucket_mut(windows, k, || PartialState::new_for(func, float)).push_tv(t, v);
    }
}

/// The memo groups `[Σ, Σ², ends]` a whole-page answer for `func` rests
/// on beyond the exact header: what every path that answers `func`
/// computes, so what its fold memoizes and what serving it needs. COUNT,
/// MIN and MAX rest on the header alone, a quantile on a digest.
fn memo_groups(func: AggFunc) -> [bool; 3] {
    match func {
        AggFunc::Sum | AggFunc::Avg => [true, false, false],
        AggFunc::Variance => [true, true, false],
        AggFunc::First | AggFunc::Last | AggFunc::Rate | AggFunc::Delta => [false, false, true],
        AggFunc::Count | AggFunc::Min | AggFunc::Max => [false; 3],
        AggFunc::P50 | AggFunc::P95 | AggFunc::P99 => [false; 3],
    }
}

/// A `[cacheable]` page's whole-page partial for `func` and the bucket it
/// lands in, from the exact header (count, min, max, timestamp bounds)
/// and the page's memo — or `None` when the page object's checksum has
/// not been verified, the memo lacks a group `func` rests on, or `func`
/// is a quantile. COUNT,
/// MIN and MAX therefore hit on any verified page, with no fold since the
/// last `PartialCache::clear`; the others after a whole-page fold of
/// this very object memoized their groups. Groups `func` does not read
/// ride along.
pub(crate) fn memoized(
    page: &Page,
    func: AggFunc,
    window: Option<SlidingWindow>,
) -> Option<(usize, PartialState)> {
    let h = &page.header;
    let memo = page.is_verified().then(|| page.moments())?;
    if func.needs_digest() {
        return None;
    }
    whole_state(func, memo, u64::from(h.count), h, window)
}

/// [`memoized`] one level up: a cacheable segment's whole-segment
/// partial, from its union header, memo and digest, once the segment is
/// marked all-verified — in one load, what merging its pages' partials
/// gives: the same moments, and for a quantile the same digest, when the
/// caller asks only of a segment that is one merge group.
pub(crate) fn memoized_segment(
    seg: &Segment,
    func: AggFunc,
    window: Option<SlidingWindow>,
) -> Option<(usize, PartialState)> {
    let memo = seg.is_verified().then(|| seg.moments())?;
    let mut hit = whole_state(func, memo, seg.tuples(), seg.header(), window)?;
    if func.needs_digest() {
        hit.1.digest = Some(TDigest::from(&*seg.digest()?));
    }
    Some(hit)
}

/// The whole partial of `count` tuples within exact `bounds` whose memo
/// is `m`, and its bucket, without a digest; `None` when `m` lacks a
/// group `func` rests on or the bounds straddle buckets.
fn whole_state(
    func: AggFunc,
    m: PageMoments,
    count: u64,
    bounds: &PageHeader,
    window: Option<SlidingWindow>,
) -> Option<(usize, PartialState)> {
    let [sum, sum_sq, ends] = memo_groups(func);
    let lacks = (sum && m.sum.is_none()) || (sum_sq && m.sum_sq.is_none());
    if lacks || (ends && m.ends.is_none()) {
        return None;
    }
    let agg = AggState {
        sum: m.sum.unwrap_or(0),
        sum_sq: m.sum_sq.unwrap_or(0),
        count,
        min: Some(bounds.min_value),
        max: Some(bounds.max_value),
        first: m.ends.map(|e| e.0),
        last: m.ends.map(|e| e.1),
    };
    let state = PartialState {
        agg,
        real: None,
        first_ts: Some(bounds.first_ts),
        last_ts: Some(bounds.last_ts),
        digest: None,
    };
    Some((whole_page_bucket(bounds, window)?, state))
}

/// A morsel: a run of one segment's dispatched pages, folded in page
/// order on one thread, each by [`agg_page_job`]. An integer exact
/// aggregate merges its pages' partials into one state per bucket, an
/// associative merge (`i128` Σ, non-negative saturating Σ², count, min,
/// max, ends in time order); a float series' partials (whose real Σ
/// rounds by grouping) and a quantile's (the digest tree's leaves) stay
/// one per page, in page order. The token is checked between pages.
/// Counters go to a morsel-local [`ExecStats`] and are added to `stats`
/// once, with the morsel's pages, tuples and bytes; the morsel's time,
/// less what the decode paths' own stage timers took, is `Delta`'s: the
/// cursor's fold is the decode pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn agg_morsel(
    pages: &[PageJob],
    p: &SeriesPipeline,
    window: Option<SlidingWindow>,
    func: AggFunc,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    store: &SeriesStore,
    ctl: &CancellationToken,
) -> Result<WindowStates> {
    let start = Instant::now();
    let local = ExecStats::default();
    let (mut out, mut states) = (WindowStates::new(), WindowStates::new());
    let (mut loaded, mut bytes, mut tuples) = (0u64, 0, 0);
    let folded = pages.iter().try_for_each(|job| {
        if loaded > 0 {
            ctl.check()?;
        }
        loaded += 1;
        bytes += job.0.encoded_len() as u64;
        tuples += u64::from(job.0.header.count);
        agg_page_job(job, p, window, func, cfg, &local, &mut states)?;
        if p.float || func.needs_digest() {
            out.append(&mut states);
        } else {
            merge_states(&mut out, &states);
            states.clear();
        }
        Ok(())
    });
    store.io().record_pages(loaded, bytes);
    local.pages_loaded.store(loaded, Ordering::Relaxed);
    local.tuples_scanned.store(tuples, Ordering::Relaxed);
    let timed = [Stage::Unpack, Stage::Delta, Stage::Filter, Stage::Agg];
    let timed: u64 = timed
        .map(|s| s.counter(&local).load(Ordering::Relaxed))
        .iter()
        .sum();
    let spent = start.elapsed().as_nanos() as u64;
    (local.delta_ns).fetch_add(spent.saturating_sub(timed), Ordering::Relaxed);
    stats.absorb(&local);
    folded.map(|()| out)
}

/// The per-page aggregation pipeline, executing the planner's
/// [`Strategy`]: appends the page's partial states, keyed by window
/// index (0 when unwindowed), to `out`, which it finds empty.
///
/// The page folds under the residual of `p`'s predicate, which trusts
/// the header and is therefore taken after the checksum; a page of a
/// float series (`p.float`) folds its ordered keys tuple at a time.
/// `cacheable` is the planner's
/// [`crate::physical::node::PageDecision::cacheable`] verdict: every
/// tuple of the page qualifies and the page lands in one bucket. Such a
/// page's fold memoizes what it computed on the page, for [`memoized`]
/// to serve, after the page's checksum is verified (the cache-obligation
/// invariant, hashed once per resident page object), so a memo cannot
/// stand in for corrupted bytes. A digest leaves the job compressed; the
/// driver's merge node groups it with its neighbours.
pub(crate) fn agg_page_job(
    &(page, strategy, cacheable): &PageJob,
    p: &SeriesPipeline,
    window: Option<SlidingWindow>,
    func: AggFunc,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    out: &mut WindowStates,
) -> Result<()> {
    // The cursor and the vectorized decoders read chunk bytes without
    // going through the checksum-verified Page::decode, and the header
    // answers COUNT / MIN / MAX alone — both would otherwise turn
    // corruption into a silently wrong aggregate rather than an error.
    // The first job to touch this page
    // object hashes it; after that the check is its verified mark. It
    // also lets the page take a memo.
    page.ensure_verified().map_err(Error::Storage)?;
    // Only now is the header trusted to prove conjuncts: a page the
    // filter covers folds as an unfiltered one.
    let pred = &p.pred.residual(&page.header, cfg.prune);

    // The planner only marks pages cacheable when the whole page
    // qualifies and lands in one bucket; re-derive both defensively (a
    // partly covered or straddling page just folds).
    let whole = cacheable && pred.is_trivial();
    let whole = whole && whole_page_bucket(&page.header, window).is_some();
    // Verified just now, the page answers what its header holds (COUNT,
    // MIN, MAX) without a fold on its first touch too.
    if let Some(hit) = whole.then(|| memoized(page, func, window)).flatten() {
        out.push(hit);
        return Ok(());
    }
    if strategy == Strategy::Serial || p.float {
        fold_page_tuples(page, pred, window, func, p.float, stats, out)?;
    } else {
        agg_page_states(page, pred, window, func, cfg, stats, out)?;
    }
    // A digest leaves its page compressed, once, on every path: the
    // merge tree above it is then the same, whatever was memoized.
    let digests = out.iter_mut().filter_map(|(_, s)| s.digest.as_mut());
    digests.for_each(TDigest::compress);
    if let ([(_, s)], true) = (out.as_slice(), whole) {
        let [sum, sum_sq, ends] = memo_groups(func);
        page.memoize(PageMoments {
            sum: Some(s.agg.sum).filter(|_| sum),
            sum_sq: Some(s.agg.sum_sq).filter(|_| sum_sq),
            ends: s.agg.first.zip(s.agg.last).filter(|_| ends),
        });
    }
    Ok(())
}

/// The tuple-at-a-time body of [`agg_page_job`]: decode value-at-a-time
/// with the reference decoders, branch per tuple. The "Serial"/"IoTDB"
/// baseline, and every page of a float series, whose keys no cursor or
/// packed kernel folds.
fn fold_page_tuples(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    float: bool,
    stats: &ExecStats,
    out: &mut WindowStates,
) -> Result<()> {
    let (ts, vals) = {
        let _d = Stage::Delta.timer(stats);
        page.decode().map_err(Error::Storage)?
    };
    stats
        .materialized_bytes
        .fetch_add((ts.len() + vals.len()) as u64 * 8, Ordering::Relaxed);
    let _a = Stage::Agg.timer(stats);
    fold_tuples(&ts, &vals, pred, window, func, float, out);
    Ok(())
}

/// The vectorized body of [`agg_page_job`] (everything after the
/// checksum verification): index range → bucket subranges → one fold
/// per bucket.
fn agg_page_states(
    page: &Page,
    pred: &Predicate,
    window: Option<SlidingWindow>,
    func: AggFunc,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    out: &mut WindowStates,
) -> Result<()> {
    // ---- The qualifying index range [a, b] ----------------------------
    // Ordered timestamps make the time filter, cut below at the window
    // origin, an index range; header bounds are exact, so a page they
    // place inside it needs no timestamp at all.
    let count = page.header.count as usize;
    let trange = pred.time.unwrap_or_else(TimeRange::all);
    let wide = window.map_or(trange, |w| TimeRange {
        lo: trange.lo.max(w.t_min),
        ..trange
    });
    let mut ts: Option<Vec<i64>> = None;
    let range = if wide.covers(&page.header) {
        Some((0, count.saturating_sub(1)))
    } else if let Some(range) = constant_positions(page, wide.lo, wide.hi) {
        range
    } else {
        let _f = Stage::Filter.timer(stats);
        let decoded = ts.insert(decode_ts_column(page, stats)?);
        let (a, b) = wide.index_range(decoded);
        (a < b).then(|| (a, b - 1))
    };
    let Some((a, mut b)) = range else {
        return Ok(());
    };

    // ---- Bucket subranges, each folded into one partial state ---------
    // DecodeScan → Filter → PartialAgg: run by the cursor over the
    // encoded column when its gate admits the column and the aggregate
    // reads no timestamp, else over the decoded values.
    let mut values = match open_fold_cursor(page, pred, func, cfg)? {
        Some(cursor) => Values::Cursor(cursor),
        None => {
            let vals = decode_val_column(page, pred, cfg, stats)?;
            // Suffix pruning may have stopped the decode short of `b`:
            // the elements it skipped provably fail the value filter.
            if a >= vals.len() {
                return Ok(());
            }
            b = b.min(vals.len() - 1);
            Values::Decoded(vals)
        }
    };
    if let (Values::Decoded(vals), true) = (&values, func.partial_only()) {
        let ts = match ts {
            Some(ts) => ts,
            None => decode_ts_column(page, stats)?,
        };
        let ts = ts
            .get(a..=b)
            .ok_or(Error::Decode("column length mismatch (corrupt page)"))?;
        let _a = Stage::Agg.timer(stats);
        fold_tuples(ts, &vals[a..=b], pred, window, func, false, out);
        return Ok(());
    }
    // The cursor's fold *is* the decode pass, timed with its morsel.
    let _a = matches!(values, Values::Decoded(_)).then(|| Stage::Agg.timer(stats));
    for_each_window_range(page, window, a, b, ts.as_deref(), stats, |k, i, j| {
        let state = match &mut values {
            Values::Cursor(cursor) => cursor.fold_range(i, j)?,
            Values::Decoded(vals) => fold_values(&vals[i..=j], pred.value, func),
        };
        if state.count > 0 {
            out.push((k, state.into()));
        }
        Ok(())
    })?;
    if let Values::Cursor(cursor) = values {
        let pruned = cursor.finish()? as u64;
        if pruned > 0 {
            stats.tuples_pruned.fetch_add(pruned, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// What the bucket subranges of a page are folded from.
// The cursor carries its unpack block; it lives on the job's stack so
// that a page costs no allocation.
#[allow(clippy::large_enum_variant)]
enum Values<'a> {
    /// Packed deltas, decoded and folded in registers.
    Cursor(FoldCursor<'a>),
    /// The materialized column.
    Decoded(Vec<i64>),
}

/// The decode-and-fold cursor for `page`'s value column, when `func`
/// reads no timestamp and no sketch, FIRST / LAST only with no value
/// conjunct left (an unfiltered fold's ends), and the column passes the
/// cursor's gate; `None` keeps `decode_val_column` → [`fold_values`].
fn open_fold_cursor<'a>(
    page: &'a Page,
    pred: &Predicate,
    func: AggFunc,
    cfg: &PipelineConfig,
) -> Result<Option<FoldCursor<'a>>> {
    let ends = matches!(func, AggFunc::First | AggFunc::Last);
    if func.partial_only() || (ends && pred.value.is_some()) {
        return Ok(None);
    }
    FoldCursor::open(
        page.header.val_encoding,
        &page.val_bytes,
        Some((page.header.min_value, page.header.max_value)),
        pred.value,
        cfg.prune,
        func == AggFunc::Variance,
    )
}
