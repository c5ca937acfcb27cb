//! Window/bucket geometry shared by the aggregation executor
//! ([`crate::physical::agg`]), the `Pipe` planner
//! ([`crate::physical::pipe`]) and the plan verifier
//! ([`crate::physical::verify`]): the one splitter from a page's
//! qualifying index range to per-bucket subranges, the §V-A
//! constant-interval position arithmetic, and the single-bucket test
//! that lets bucket-aligned pages be answered from header plus memo
//! under `GROUP BY time(..)`. An unwindowed aggregate is the one-bucket case
//! of all three.

use etsqp_encoding::{ts2diff, Encoding};
use etsqp_storage::page::{Page, PageHeader};

use crate::exec::ExecStats;
use crate::expr::SlidingWindow;
use crate::physical::scan::decode_ts_column;
use crate::prune::constant_interval_positions;
use crate::{Error, Result};

/// The single bucket wholly containing the time span of a page's (or a
/// segment's) header, if any.
///
/// `Some(k)` means every tuple of the page falls into window `k` — the
/// precondition for running a whole-page fused form (or serving a
/// cached whole-page partial) under a windowed aggregate. All the
/// arithmetic is overflow-checked so hostile `t_min`/timestamp
/// combinations return `None` instead of wrapping.
pub(crate) fn single_bucket_index(header: &PageHeader, w: &SlidingWindow) -> Option<usize> {
    if w.dt <= 0 || header.first_ts < w.t_min {
        return None;
    }
    // first_ts ≤ last_ts, so if last_ts − t_min fits, first_ts − t_min does.
    header.last_ts.checked_sub(w.t_min)?;
    let ka = w.window_of(header.first_ts)?;
    let kb = w.window_of(header.last_ts)?;
    (ka == kb).then_some(ka)
}

/// The window index a whole-page partial lands in: `0` when unwindowed,
/// the single covering bucket when the page is bucket-aligned, `None`
/// when the page straddles buckets (the caller must split it with
/// [`window_index_ranges`]).
pub(crate) fn whole_page_bucket(
    header: &PageHeader,
    window: Option<SlidingWindow>,
) -> Option<usize> {
    match window {
        None => Some(0),
        Some(w) => single_bucket_index(header, &w),
    }
}

/// Where index `i` of a page lies in time: solved arithmetically for
/// constant-interval timestamp pages (§V-A), read from the decoded
/// column otherwise.
enum Clock<'a> {
    Constant {
        first: i64,
        interval: i64,
        count: usize,
    },
    Decoded(&'a [i64]),
}

impl Clock<'_> {
    fn at(&self, i: usize) -> i64 {
        match *self {
            // In range: `window_index_ranges` checked the last index.
            Clock::Constant {
                first, interval, ..
            } => first + i as i64 * interval,
            Clock::Decoded(ts) => ts[i],
        }
    }

    /// The last index in `[i, b]` whose timestamp is `≤ t_hi`, given
    /// that index `i`'s is.
    fn last_le(&self, i: usize, b: usize, t_hi: i64) -> usize {
        match *self {
            Clock::Constant {
                first,
                interval,
                count,
            } => constant_interval_positions(first, interval, count, i64::MIN, t_hi)
                .map_or(i, |(_, j)| j.clamp(i, b)),
            Clock::Decoded(ts) => i + ts[i..=b].partition_point(|&t| t <= t_hi).max(1) - 1,
        }
    }
}

/// Splits the qualifying index range `[a, b]` of a page into per-bucket
/// inclusive subranges `(bucket, i, j)`, ascending. A page inside one
/// bucket — every page of an unwindowed aggregate — is the single range
/// `(k, a, b)` and needs no timestamps; a straddling page walks its
/// non-empty buckets (at most one step per tuple, however far apart the
/// timestamps lie) over `ts` when the caller already decoded them, over
/// the constant-interval arithmetic when the timestamp page allows, and
/// over [`decode_ts_column`] otherwise.
pub(crate) fn window_index_ranges(
    page: &Page,
    window: Option<SlidingWindow>,
    a: usize,
    b: usize,
    ts: Option<&[i64]>,
    stats: &ExecStats,
) -> Result<Vec<(usize, usize, usize)>> {
    let Some(w) = window else {
        return Ok(vec![(0, a, b)]);
    };
    if let Some(k) = single_bucket_index(&page.header, &w) {
        return Ok(vec![(k, a, b)]);
    }
    let ts_owned;
    let clock = match ts {
        Some(ts) => Clock::Decoded(ts),
        None => match constant_interval(page).filter(|&(_, interval, _)| interval >= 0) {
            Some((first, interval, count)) => {
                // A crafted header can put the last timestamp outside i64.
                (count as i64 - 1)
                    .checked_mul(interval)
                    .and_then(|span| first.checked_add(span))
                    .ok_or(Error::Decode("constant-interval timestamps overflow i64"))?;
                Clock::Constant {
                    first,
                    interval,
                    count,
                }
            }
            None => {
                ts_owned = decode_ts_column(page, stats)?;
                Clock::Decoded(&ts_owned)
            }
        },
    };
    let end = (b + 1).min(match clock {
        Clock::Constant { count, .. } => count,
        Clock::Decoded(ts) => ts.len(),
    });
    let mut out = Vec::new();
    let mut i = a;
    while i < end {
        // Timestamps below the window origin belong to no bucket.
        let Some(k) = w.window_of(clock.at(i)) else {
            i += 1;
            continue;
        };
        let j = clock.last_le(i, end - 1, w.range(k).hi);
        out.push((k, i, j));
        i = j + 1;
    }
    Ok(out)
}

/// `(first, interval, count)` of a constant-interval timestamp page
/// (width-0 order-1 TS2DIFF: every delta equals `min_delta`), whose
/// index ↔ time mapping is arithmetic (§V-A).
fn constant_interval(page: &Page) -> Option<(i64, i64, usize)> {
    if page.header.ts_encoding != Encoding::Ts2Diff {
        return None;
    }
    let parsed = ts2diff::parse(&page.ts_bytes).ok()?;
    (parsed.order == 1 && parsed.width == 0 && parsed.count > 0)
        .then(|| (parsed.first[0], parsed.min_delta, parsed.count))
}

/// Constant-interval shortcut (§V-A): the index range inside
/// `[t_lo, t_hi]` solved arithmetically. Returns `None` when the
/// shortcut does not apply, `Some(None)` when it applies and proves
/// emptiness.
#[allow(clippy::option_option)]
pub(crate) fn constant_positions(
    page: &Page,
    t_lo: i64,
    t_hi: i64,
) -> Option<Option<(usize, usize)>> {
    let (first, interval, count) = constant_interval(page)?;
    Some(constant_interval_positions(
        first, interval, count, t_lo, t_hi,
    ))
}
