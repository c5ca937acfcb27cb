//! `etsqp-verify` layer 1: the physical-plan IR verifier.
//!
//! An LLVM-verifier-style pass over a compiled [`PhysicalPlan`]: every
//! invariant the executor relies on is re-derived from the plan's own
//! pages, predicate, and config, and any mismatch is a typed
//! [`VerifyError`] naming the violated [`Invariant`]. The catalog
//! (DESIGN.md §13):
//!
//! * [`Invariant::PlanShape`] — root arity matches the pipeline list,
//!   per-page decisions align index-for-index with the page list, and
//!   there is one decision per segment.
//! * [`Invariant::PruneSoundness`] — every §V verdict re-derives from
//!   the page header under the plan's config, pruned pages carry the
//!   checksum-verification obligation (the `verify_pruned` discipline),
//!   and verdict/strategy presence agree; a segment's verdict holds for
//!   every page header under it (pruned: every page has that verdict;
//!   covered: every page is kept and proven).
//! * [`Invariant::PartitionTiling`] — binary-merge partitions tile
//!   `[i64::MIN, i64::MAX]` disjointly and completely (§VI merge order).
//! * [`Invariant::FusionAdmissibility`] — every kept page runs `decode`,
//!   or `serial` exactly when the plan is not vectorized; the four
//!   whole-page labels (`fused(ts2diff)`, `fused(delta_rle)`,
//!   `fused(svb)`, `header(min/max)`) are no longer planned and never
//!   admitted.
//! * [`Invariant::HotFoldsLast`] — on every pipeline, unary or a binary
//!   operator's side, a hot-chunk source has strictly increasing
//!   timestamps that follow every sealed page (FIRST/LAST folding order
//!   and the merges' time order are safe) and a verdict that re-derives
//!   from its exact statistics.
//! * [`Invariant::ExplainRoundTrip`] — `EXPLAIN` text re-renders
//!   byte-identically from the verified plan and echoes its structure.
//! * [`Invariant::BucketTiling`] — windowed roots use a positive bucket
//!   width, every kept page's window arithmetic is overflow-free, bucket
//!   indices are monotone over each page, and consecutive bucket ranges
//!   tile the time axis without gap or overlap.
//! * [`Invariant::CacheObligation`] — a `[cacheable]` page decision only
//!   appears where the partial cache is sound: cache enabled, page kept,
//!   no residual value conjunct, time range covers the page, and the
//!   page lands in a single bucket; a cacheable segment is covered, every
//!   page decision under it is `[cacheable]`, and its union lands in one
//!   bucket; under [`verify_deep`], a segment carrying its all-verified
//!   mark (which the driver trusts to serve its memo) re-hashes clean
//!   page by page.
//! * [`Invariant::PartialMergeOrder`] — kept pages are strictly
//!   time-ordered and internally consistent, so the sequential partial
//!   merge (FIRST/LAST, timestamp bounds, sketches) is order-safe.
//!
//! Coverage — which conjuncts a page header proves — is re-derived by
//! [`header_proves`], never by the planner's residual.
//!
//! [`verify`] is pure header/IR analysis and runs as a debug-assertion
//! post-compile hook inside [`crate::physical::pipe::compile`];
//! [`verify_deep`] additionally discharges the checksum obligations and
//! the all-verified marks (used by `cargo run -p xtask -- verify-plans`,
//! which enumerates the full plan space and mutation-tests rejection).

use std::fmt;

use etsqp_storage::page::Page;

use crate::expr::{Predicate, SlidingWindow, TimeRange};
use crate::physical::node::{RootNode, SegmentVerdict, SeriesPipeline, Strategy};
use crate::physical::pipe::PhysicalPlan;
use crate::physical::scan::{hot_verdict, page_verdict};
use crate::physical::verify_partial::{
    check_bucket_tiling, check_cache_obligations, check_partial_merge_order,
};
use crate::plan::PipelineConfig;

/// The invariant classes of the verifier catalog (one negative test per
/// class lives in `crates/core/tests/verify_negative.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Root arity and page/decision alignment.
    PlanShape,
    /// §V verdicts re-derive and pruned pages carry their checksum
    /// obligation (`verify_pruned` discipline).
    PruneSoundness,
    /// Binary-merge partitions tile the time domain disjointly.
    PartitionTiling,
    /// Kept pages run `decode` (`serial` unvectorized).
    FusionAdmissibility,
    /// Hot-chunk sources fold last (timestamps after all sealed pages).
    HotFoldsLast,
    /// `EXPLAIN` output round-trips the verified plan.
    ExplainRoundTrip,
    /// Windowed buckets are well-formed: positive width, overflow-free
    /// index arithmetic, monotone over pages, gap/overlap-free ranges.
    BucketTiling,
    /// `[cacheable]` decisions only where the partial cache is sound.
    CacheObligation,
    /// Kept pages are strictly time-ordered (order-safe partial merge).
    PartialMergeOrder,
}

impl Invariant {
    /// Stable catalog name (used in error text and DESIGN.md §13).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::PlanShape => "plan-shape",
            Invariant::PruneSoundness => "prune-soundness",
            Invariant::PartitionTiling => "partition-tiling",
            Invariant::FusionAdmissibility => "fusion-admissibility",
            Invariant::HotFoldsLast => "hot-folds-last",
            Invariant::ExplainRoundTrip => "explain-round-trip",
            Invariant::BucketTiling => "bucket-tiling",
            Invariant::CacheObligation => "cache-obligation",
            Invariant::PartialMergeOrder => "partial-merge-order",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected plan: which invariant failed and where.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The violated invariant class.
    pub invariant: Invariant,
    /// Human-readable location + mismatch description.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {}: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Verifier result alias.
pub type VerifyResult = std::result::Result<(), VerifyError>;

pub(super) fn fail(invariant: Invariant, detail: String) -> VerifyResult {
    Err(VerifyError { invariant, detail })
}

/// What a pipeline's kept pages feed — mirrors the planner's `Role`, but
/// derived here from the root node so the two cannot share a bug.
pub(super) enum VerifyRole {
    Agg { window: Option<SlidingWindow> },
    Rows,
}

/// Verifies a compiled plan against the invariant catalog. Pure IR/header
/// analysis: no page payload is decoded and no checksum is computed (see
/// [`verify_deep`] for the obligation-discharging variant).
pub fn verify(plan: &PhysicalPlan, cfg: &PipelineConfig) -> VerifyResult {
    check_shape(plan)?;
    let role = |i: usize| match &plan.root {
        RootNode::Aggregate { window, .. } if i == 0 => VerifyRole::Agg { window: *window },
        _ => VerifyRole::Rows,
    };
    for (i, p) in plan.pipelines.iter().enumerate() {
        check_prune_soundness(p, cfg)?;
        check_fusion_admissibility(p, cfg)?;
        check_hot_folds_last(p, cfg)?;
        check_bucket_tiling(p, &role(i))?;
        check_cache_obligations(p, &role(i), cfg)?;
        check_partial_merge_order(p)?;
    }
    check_partition_tiling(plan)?;
    Ok(())
}

/// [`verify`] plus discharge of every checksum obligation the plan
/// recorded: each pruned page's FNV checksum is verified now, proving
/// the header statistics the §V verdict trusted were intact. So is every
/// page of a segment carrying its all-verified mark, which the driver
/// trusts to prune the segment or serve its memo without a page read.
pub fn verify_deep(plan: &PhysicalPlan, cfg: &PipelineConfig) -> VerifyResult {
    verify(plan, cfg)?;
    for p in &plan.pipelines {
        for (i, seg) in p
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_verified())
        {
            if let Some(e) = seg.pages().iter().find_map(|pg| pg.verify().err()) {
                return fail(
                    Invariant::CacheObligation,
                    format!(
                        "pipeline {}: segment {i} is marked all-verified over a page that fails its checksum: {e}",
                        p.series
                    ),
                );
            }
        }
        for (page, d) in p.pages().zip(&p.decisions) {
            if !d.verdict.kept() {
                if let Err(e) = page.verify() {
                    return fail(
                        Invariant::PruneSoundness,
                        format!(
                            "pipeline {}: pruned page {} fails its checksum obligation: {e}",
                            p.series, d.index
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}

/// Verifies that `rendered` is the `EXPLAIN` text of `plan` under `cfg`:
/// it must re-render byte-identically and echo the plan's structure
/// (header config, pipeline count, partition count).
pub fn verify_explain(plan: &PhysicalPlan, cfg: &PipelineConfig, rendered: &str) -> VerifyResult {
    let again = plan.render(cfg);
    if again != rendered {
        return fail(
            Invariant::ExplainRoundTrip,
            "EXPLAIN text does not re-render from the plan".into(),
        );
    }
    let header = format!("physical plan (threads={}", cfg.threads);
    if !rendered.starts_with(&header) {
        return fail(
            Invariant::ExplainRoundTrip,
            format!("EXPLAIN header does not echo the config (expected `{header}…`)"),
        );
    }
    let pipeline_lines = rendered
        .lines()
        .filter(|l| l.starts_with("  pipeline "))
        .count();
    if pipeline_lines != plan.pipelines.len() {
        return fail(
            Invariant::ExplainRoundTrip,
            format!(
                "EXPLAIN shows {pipeline_lines} pipelines, plan has {}",
                plan.pipelines.len()
            ),
        );
    }
    let partitions = match &plan.root {
        RootNode::Union { partitions } | RootNode::Join { partitions, .. } => partitions.len(),
        _ => 0,
    };
    let partition_lines = rendered
        .lines()
        .filter(|l| l.starts_with("  partition "))
        .count();
    if partition_lines != partitions {
        return fail(
            Invariant::ExplainRoundTrip,
            format!("EXPLAIN shows {partition_lines} partitions, plan has {partitions}"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariant checks
// ---------------------------------------------------------------------

fn check_shape(plan: &PhysicalPlan) -> VerifyResult {
    let arity = match &plan.root {
        RootNode::Aggregate { .. } | RootNode::Rows => 1,
        RootNode::Union { .. } | RootNode::Join { .. } | RootNode::PairAgg { .. } => 2,
    };
    if plan.pipelines.len() != arity {
        return fail(
            Invariant::PlanShape,
            format!(
                "root expects {arity} pipeline(s), plan has {}",
                plan.pipelines.len()
            ),
        );
    }
    for p in &plan.pipelines {
        let pages = p.pages().count();
        if p.decisions.len() != pages {
            return fail(
                Invariant::PlanShape,
                format!(
                    "pipeline {}: {} decisions for {} pages",
                    p.series,
                    p.decisions.len(),
                    pages
                ),
            );
        }
        if p.segment_decisions.len() != p.segments.len() {
            return fail(
                Invariant::PlanShape,
                format!(
                    "pipeline {}: {} segment decisions for {} segments",
                    p.series,
                    p.segment_decisions.len(),
                    p.segments.len()
                ),
            );
        }
        for (i, (page, d)) in p.pages().zip(&p.decisions).enumerate() {
            if d.index != i {
                return fail(
                    Invariant::PlanShape,
                    format!(
                        "pipeline {}: decision {i} records page index {}",
                        p.series, d.index
                    ),
                );
            }
            if d.tuples != page.header.count as u64 {
                return fail(
                    Invariant::PlanShape,
                    format!(
                        "pipeline {}: decision {i} records {} tuples, header says {}",
                        p.series, d.tuples, page.header.count
                    ),
                );
            }
        }
    }
    Ok(())
}

fn check_prune_soundness(p: &SeriesPipeline, cfg: &PipelineConfig) -> VerifyResult {
    // A segment's verdict must hold for each page under it, re-derived
    // from the page headers, not from its union.
    for (i, (seg, sd, _)) in p.segment_parts().enumerate() {
        let mut pages = seg.pages().iter().map(|page| {
            let proven = header_proves(page, &p.pred, cfg.prune) == (true, true);
            (page_verdict(&page.header, &p.pred, cfg.prune), proven)
        });
        let why = match sd.verdict {
            SegmentVerdict::Pruned(v) if pages.any(|(page, _)| page != v) => Some(format!(
                "segment claims {v}, but a page's header says otherwise"
            )),
            SegmentVerdict::Covered if pages.any(|(v, proven)| !v.kept() || !proven) => {
                Some("segment claims covered, but a page straddles".to_string())
            }
            _ => None,
        };
        if let Some(why) = why {
            return fail(
                Invariant::PruneSoundness,
                format!("pipeline {}: segment {i}: {why}", p.series),
            );
        }
    }
    for (page, d) in p.pages().zip(&p.decisions) {
        let expect = page_verdict(&page.header, &p.pred, cfg.prune);
        if d.verdict != expect {
            return fail(
                Invariant::PruneSoundness,
                format!(
                    "pipeline {}: page {} verdict {} does not re-derive (expected {expect})",
                    p.series, d.index, d.verdict
                ),
            );
        }
        if d.verdict.kept() != d.strategy.is_some() {
            return fail(
                Invariant::PruneSoundness,
                format!(
                    "pipeline {}: page {} is {} but strategy is {:?}",
                    p.series, d.index, d.verdict, d.strategy
                ),
            );
        }
        if !d.verdict.kept() && !d.checksum_obligation {
            return fail(
                Invariant::PruneSoundness,
                format!(
                    "pipeline {}: page {} is {} without a checksum-verification \
                     obligation (verify-before-prune, PR 5)",
                    p.series, d.index, d.verdict
                ),
            );
        }
    }
    Ok(())
}

/// Which conjuncts of `pred` the header of `page` proves for every tuple
/// of it, `(time, value)` — an absent conjunct is proven, and with
/// pruning off no value conjunct is. Re-derived here from the header and
/// the predicate, not through the planner's residual, so that a planner
/// bug in coverage cannot vouch for itself.
pub(super) fn header_proves(page: &Page, pred: &Predicate, prune: bool) -> (bool, bool) {
    let h = &page.header;
    let time = pred
        .time
        .is_none_or(|t| t.lo <= h.first_ts && h.last_ts <= t.hi);
    let value = pred
        .value
        .is_none_or(|(lo, hi)| prune && lo <= h.min_value && h.max_value <= hi);
    (time, value)
}

/// Whether `strategy` is admissible under `cfg` — re-derived from the
/// config, not by re-running the planner, so a planner bug cannot vouch
/// for itself: `serial` exactly when the plan is not vectorized, and
/// never a whole-page label.
fn admissible(strategy: Strategy, cfg: &PipelineConfig) -> Result<(), String> {
    if matches!(strategy, Strategy::Serial) != !cfg.vectorized {
        return Err(format!(
            "strategy {strategy} contradicts vectorized={}",
            cfg.vectorized
        ));
    }
    match strategy {
        Strategy::Decode | Strategy::Serial => Ok(()),
        retired => Err(format!("{retired} is no longer planned")),
    }
}

fn check_fusion_admissibility(p: &SeriesPipeline, cfg: &PipelineConfig) -> VerifyResult {
    for d in &p.decisions {
        if let Err(why) = d.strategy.map_or(Ok(()), |s| admissible(s, cfg)) {
            return fail(
                Invariant::FusionAdmissibility,
                format!("pipeline {}: page {}: {why}", p.series, d.index),
            );
        }
    }
    Ok(())
}

fn check_partition_tiling(plan: &PhysicalPlan) -> VerifyResult {
    let partitions: &[TimeRange] = match &plan.root {
        RootNode::Union { partitions } | RootNode::Join { partitions, .. } => partitions,
        _ => return Ok(()),
    };
    let Some(first) = partitions.first() else {
        return fail(
            Invariant::PartitionTiling,
            "binary merge with zero partitions".into(),
        );
    };
    if first.lo != i64::MIN {
        return fail(
            Invariant::PartitionTiling,
            format!("first partition starts at {}, not -inf", first.lo),
        );
    }
    let mut prev_hi: Option<i64> = None;
    for (i, r) in partitions.iter().enumerate() {
        if r.lo > r.hi {
            return fail(
                Invariant::PartitionTiling,
                format!("partition {i} is empty ([{}, {}])", r.lo, r.hi),
            );
        }
        if let Some(ph) = prev_hi {
            if ph == i64::MAX || r.lo != ph + 1 {
                return fail(
                    Invariant::PartitionTiling,
                    format!(
                        "partition {i} starts at {} but partition {} ended at {ph} \
                         (gap or overlap)",
                        r.lo,
                        i - 1
                    ),
                );
            }
        }
        prev_hi = Some(r.hi);
    }
    if prev_hi != Some(i64::MAX) {
        return fail(
            Invariant::PartitionTiling,
            format!("last partition ends at {prev_hi:?}, not +inf"),
        );
    }
    Ok(())
}

fn check_hot_folds_last(p: &SeriesPipeline, cfg: &PipelineConfig) -> VerifyResult {
    let Some(hot) = &p.hot else {
        return Ok(());
    };
    if hot.ts.len() != hot.vals.len() || hot.ts.is_empty() {
        return fail(
            Invariant::HotFoldsLast,
            format!(
                "pipeline {}: hot snapshot has {} timestamps and {} values",
                p.series,
                hot.ts.len(),
                hot.vals.len()
            ),
        );
    }
    if hot.ts.windows(2).any(|w| w[0] >= w[1]) {
        return fail(
            Invariant::HotFoldsLast,
            format!(
                "pipeline {}: hot timestamps are not strictly increasing",
                p.series
            ),
        );
    }
    let hot_first = hot.ts[0];
    for (page, d) in p.pages().zip(&p.decisions) {
        if page.header.last_ts >= hot_first {
            return fail(
                Invariant::HotFoldsLast,
                format!(
                    "pipeline {}: sealed page {} ends at {} but the hot chunk starts \
                     at {hot_first}; folding hot last would break FIRST/LAST",
                    p.series, d.index, page.header.last_ts
                ),
            );
        }
    }
    let (mut min_v, mut max_v) = (i64::MAX, i64::MIN);
    for &v in hot.vals.iter() {
        min_v = min_v.min(v);
        max_v = max_v.max(v);
    }
    let expect = hot_verdict(&hot.ts, min_v, max_v, &p.pred, cfg.prune);
    if hot.verdict != expect {
        return fail(
            Invariant::HotFoldsLast,
            format!(
                "pipeline {}: hot verdict {} does not re-derive from the snapshot's \
                 exact statistics (expected {expect})",
                p.series, hot.verdict
            ),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_names_are_stable() {
        let all = [
            Invariant::PlanShape,
            Invariant::PruneSoundness,
            Invariant::PartitionTiling,
            Invariant::FusionAdmissibility,
            Invariant::HotFoldsLast,
            Invariant::ExplainRoundTrip,
            Invariant::BucketTiling,
            Invariant::CacheObligation,
            Invariant::PartialMergeOrder,
        ];
        let names: Vec<_> = all.iter().map(|i| i.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "names must be distinct: {names:?}");
    }

    #[test]
    fn verify_error_display_names_the_invariant() {
        let e = VerifyError {
            invariant: Invariant::PartitionTiling,
            detail: "gap at 7".into(),
        };
        assert_eq!(e.to_string(), "invariant partition-tiling: gap at 7");
    }
}
