//! Partial-state invariants of the physical-plan verifier (DESIGN.md
//! §13): the three checks introduced with partializable aggregates —
//! [`Invariant::BucketTiling`], [`Invariant::CacheObligation`], and
//! [`Invariant::PartialMergeOrder`] — live here so
//! [`crate::physical::verify`] stays within the module size budget.
//! They are called from [`crate::physical::verify::verify`] on every
//! pipeline and share its [`VerifyRole`] / [`fail`] plumbing.

use crate::physical::node::{SegmentVerdict, SeriesPipeline};
use crate::physical::verify::{fail, header_proves, Invariant, VerifyResult, VerifyRole};
use crate::physical::window::single_bucket_index;
use crate::plan::PipelineConfig;

/// The windowed-bucket obligations: positive width, overflow-free index
/// arithmetic for every kept page, monotone bucket indices within each
/// page, and gap/overlap-free bucket ranges across the kept span.
pub(super) fn check_bucket_tiling(p: &SeriesPipeline, role: &VerifyRole) -> VerifyResult {
    let VerifyRole::Agg { window: Some(w) } = role else {
        return Ok(());
    };
    if w.dt <= 0 {
        return fail(
            Invariant::BucketTiling,
            format!("pipeline {}: non-positive bucket width {}", p.series, w.dt),
        );
    }
    let (mut k_lo, mut k_hi): (Option<usize>, Option<usize>) = (None, None);
    for (page, d) in p.pages().zip(&p.decisions) {
        if !d.verdict.kept() {
            continue;
        }
        // window_of computes (t − t_min)/dt; the subtraction must not
        // overflow for any timestamp the executor will bucket.
        if page.header.last_ts >= w.t_min && page.header.last_ts.checked_sub(w.t_min).is_none() {
            return fail(
                Invariant::BucketTiling,
                format!(
                    "pipeline {}: page {}: bucket arithmetic overflows for last_ts {}",
                    p.series, d.index, page.header.last_ts
                ),
            );
        }
        match (
            w.window_of(page.header.first_ts),
            w.window_of(page.header.last_ts),
        ) {
            (Some(a), Some(b)) if a > b => {
                return fail(
                    Invariant::BucketTiling,
                    format!(
                        "pipeline {}: page {}: bucket index not monotone ({a} > {b})",
                        p.series, d.index
                    ),
                );
            }
            (Some(a), Some(b)) => {
                k_lo = Some(k_lo.map_or(a, |k: usize| k.min(a)));
                k_hi = Some(k_hi.map_or(b, |k: usize| k.max(b)));
            }
            (_, Some(b)) => {
                // first_ts precedes the window origin: bucket 0.
                k_lo = Some(0);
                k_hi = Some(k_hi.map_or(b, |k: usize| k.max(b)));
            }
            _ => {}
        }
    }
    // Bucket ranges must tile: range(k).hi + 1 == range(k+1).lo over the
    // span the kept pages touch (checked at the extremes plus their
    // neighbors — the ranges are affine in k, so that suffices).
    if let (Some(lo), Some(hi)) = (k_lo, k_hi) {
        for k in [lo, hi.saturating_sub(1)] {
            let a = w.range(k);
            let b = w.range(k + 1);
            if a.hi.checked_add(1) != Some(b.lo) || a.lo > a.hi {
                return fail(
                    Invariant::BucketTiling,
                    format!(
                        "pipeline {}: buckets {k} and {} do not tile \
                         ([{}, {}] then [{}, {}])",
                        p.series,
                        k + 1,
                        a.lo,
                        a.hi,
                        b.lo,
                        b.hi
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Re-derives every `[cacheable]` marking: a page may only be served
/// from / memoize into its memo when the whole-page
/// partial is the query's exact
/// contribution for that page — cache enabled, page kept, no residual
/// value conjunct, time range covers the page, and single bucket — and
/// the page is no float page, whose memo words would be integer Σ of
/// its keys.
pub(super) fn check_cache_obligations(
    p: &SeriesPipeline,
    role: &VerifyRole,
    cfg: &PipelineConfig,
) -> VerifyResult {
    check_segment_obligations(p, role)?;
    for (page, d) in p.pages().zip(&p.decisions) {
        if !d.cacheable {
            continue;
        }
        let (time_proved, value_proved) = header_proves(page, &p.pred, cfg.prune);
        let why = if !matches!(role, VerifyRole::Agg { .. }) {
            Some("cacheable page on a non-aggregate pipeline")
        } else if !cfg.partial_cache {
            Some("cacheable page while the partial cache is disabled")
        } else if !d.verdict.kept() {
            Some("cacheable page that is pruned")
        } else if page.header.val_encoding.is_float() {
            Some("cacheable page of a float series")
        } else if !value_proved {
            Some("cacheable page under a residual value conjunct")
        } else if !time_proved {
            Some("cacheable page not fully covered by the time range")
        } else {
            match role {
                VerifyRole::Agg { window: Some(w) }
                    if single_bucket_index(&page.header, w).is_none() =>
                {
                    Some("cacheable page straddling a bucket boundary")
                }
                _ => None,
            }
        };
        if let Some(why) = why {
            return fail(
                Invariant::CacheObligation,
                format!("pipeline {}: page {}: {why}", p.series, d.index),
            );
        }
    }
    Ok(())
}

/// A cacheable segment's memo stands for the partials of its pages: it
/// must be covered, every page decision under it `[cacheable]` (each
/// re-derived by [`check_cache_obligations`]), and its union in one
/// bucket.
fn check_segment_obligations(p: &SeriesPipeline, role: &VerifyRole) -> VerifyResult {
    for (i, (seg, sd, ds)) in p.segment_parts().enumerate() {
        let why = match role {
            _ if !sd.cacheable => None,
            _ if sd.verdict != SegmentVerdict::Covered => Some("cacheable segment not covered"),
            _ if ds.len() != seg.len() || ds.iter().any(|d| !d.cacheable) => {
                Some("cacheable segment over a page that is not [cacheable]")
            }
            VerifyRole::Agg { window: Some(w) }
                if single_bucket_index(seg.header(), w).is_none() =>
            {
                Some("cacheable segment straddling a bucket boundary")
            }
            _ => None,
        };
        if let Some(why) = why {
            return fail(
                Invariant::CacheObligation,
                format!("pipeline {}: segment {i}: {why}", p.series),
            );
        }
    }
    Ok(())
}

/// Kept pages must be strictly time-ordered and internally consistent:
/// the driver merges their partials in list order, and the
/// [`crate::partial::PartialState::merge`] contract (FIRST/LAST,
/// timestamp bounds, digest append) assumes that order is time order.
pub(super) fn check_partial_merge_order(p: &SeriesPipeline) -> VerifyResult {
    let mut prev: Option<(usize, i64)> = None;
    for (page, d) in p.pages().zip(&p.decisions) {
        if !d.verdict.kept() {
            continue;
        }
        if page.header.first_ts > page.header.last_ts {
            return fail(
                Invariant::PartialMergeOrder,
                format!(
                    "pipeline {}: page {}: header time range inverted ({} > {})",
                    p.series, d.index, page.header.first_ts, page.header.last_ts
                ),
            );
        }
        if let Some((pi, ph)) = prev {
            if page.header.first_ts <= ph {
                return fail(
                    Invariant::PartialMergeOrder,
                    format!(
                        "pipeline {}: page {} starts at {} but kept page {pi} ends at {ph}; \
                         the partial merge would be out of time order",
                        p.series, d.index, page.header.first_ts
                    ),
                );
            }
        }
        prev = Some((d.index, page.header.last_ts));
    }
    Ok(())
}
