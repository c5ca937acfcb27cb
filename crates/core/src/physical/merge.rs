//! Binary merge nodes (Figure 9): time-partitioned `MergeUnion` /
//! `MergeJoin` execution and the §IV fused pair aggregation.
//!
//! The partition boundaries are planner output ([`crate::physical::pipe`]
//! computes them from page headers and stores them in the
//! [`crate::physical::node::RootNode`]); this module only executes them:
//! one scheduler job per time range, each decoding both sides restricted
//! to its range and merging independently, with partials concatenating in
//! time order.

use std::sync::Arc;

use etsqp_encoding::delta_rle;
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::exec::{run_jobs, ExecStats};
use crate::expr::{BinOp, CmpOp, Predicate, TimeRange};
use crate::fused::{aggregate_delta_rle, dot_product_delta_rle};
use crate::physical::node::Stage;
use crate::physical::scan::{charge_page_io, prune_pages, scan_rows};
use crate::plan::{PairMoments, PipelineConfig, Value};
use crate::{Error, Result};

/// Which binary merge a partition job runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BinaryKind {
    /// Time-ordered union (ties emit left first).
    Union,
    /// Merge join on equal timestamps, optionally applying an
    /// element-wise expression or inter-column predicate.
    Join {
        /// Element-wise expression over the joined values.
        op: Option<BinOp>,
        /// Inter-column predicate (Eq. 3).
        on: Option<CmpOp>,
    },
}

/// Builds at most `2 * threads` disjoint time ranges covering both page
/// lists, cut at page first-timestamps so most pages fall wholly in one
/// range. Planner-side: the ranges appear verbatim in `EXPLAIN`.
pub(crate) fn merge_partitions(
    left: &[Arc<Page>],
    right: &[Arc<Page>],
    threads: usize,
) -> Vec<TimeRange> {
    let mut cuts: Vec<i64> = Vec::new();
    for page in left.iter().chain(right) {
        cuts.push(page.header.first_ts);
    }
    cuts.sort_unstable();
    cuts.dedup();
    if cuts.is_empty() {
        return vec![TimeRange::all()];
    }
    let want = (threads * 2).max(1);
    let step = cuts.len().div_ceil(want).max(1);
    let mut bounds: Vec<i64> = cuts.iter().copied().step_by(step).collect();
    bounds[0] = i64::MIN;
    let mut ranges = Vec::with_capacity(bounds.len());
    for (i, &lo) in bounds.iter().enumerate() {
        let hi = bounds.get(i + 1).map(|&b| b - 1).unwrap_or(i64::MAX);
        ranges.push(TimeRange { lo, hi });
    }
    ranges
}

/// Executes `Union` / `Join` / `JoinExpr` over the planner's partitions:
/// every partition decodes both sides restricted to its range (page
/// pruning keeps out-of-range pages untouched) and merges independently;
/// partials concatenate in time order.
// Two (pages, predicate) pairs plus execution context; bundling them
// into a struct would add a type used exactly once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn binary_merge_partitioned(
    store: &SeriesStore,
    left: &[Arc<Page>],
    lpred: &Predicate,
    right: &[Arc<Page>],
    rpred: &Predicate,
    ranges: &[TimeRange],
    kind: BinaryKind,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<Vec<Vec<Value>>> {
    // One worker per partition; within a partition both sides scan with
    // a single thread (the partition level is the parallel axis).
    let inner_cfg = PipelineConfig { threads: 1, ..*cfg };
    let outputs = run_jobs(
        ranges.to_vec(),
        cfg.threads,
        stats,
        ctl,
        |range| -> Result<Vec<Vec<Value>>> {
            let lp = lpred.and(&Predicate {
                time: Some(range),
                value: None,
            });
            let rp = rpred.and(&Predicate {
                time: Some(range),
                value: None,
            });
            let lkept = prune_pages(left.to_vec(), &lp, &inner_cfg, stats)?;
            let rkept = prune_pages(right.to_vec(), &rp, &inner_cfg, stats)?;
            let (lt, lv) = scan_rows(store, lkept, &lp, &inner_cfg, stats, ctl)?;
            let (rt, rv) = scan_rows(store, rkept, &rp, &inner_cfg, stats, ctl)?;
            let _m = Stage::Merge.timer(stats);
            let rows = match kind {
                BinaryKind::Union => merge_union(&lt, &lv, &rt, &rv),
                BinaryKind::Join { op, on } => merge_join(&lt, &lv, &rt, &rv, op, on),
            };
            Ok(rows)
        },
    )?;
    let mut rows = Vec::new();
    for out in outputs {
        rows.extend(out?);
    }
    Ok(rows)
}

/// Time-ordered merge of two sorted series (Q5). Ties emit left first.
pub(crate) fn merge_union(lt: &[i64], lv: &[i64], rt: &[i64], rv: &[i64]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(lt.len() + rt.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() || j < rt.len() {
        let take_left = match (lt.get(i), rt.get(j)) {
            (Some(&a), Some(&b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_left {
            rows.push(vec![Value::Int(lt[i]), Value::Int(lv[i])]);
            i += 1;
        } else {
            rows.push(vec![Value::Int(rt[j]), Value::Int(rv[j])]);
            j += 1;
        }
    }
    rows
}

/// Merge join on equal timestamps (Q4/Q6). With `op`, emits
/// `(t, op(a, b))`; without, emits `(t, a, b)`.
pub(crate) fn merge_join(
    lt: &[i64],
    lv: &[i64],
    rt: &[i64],
    rv: &[i64],
    op: Option<BinOp>,
    on: Option<CmpOp>,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        match lt[i].cmp(&rt[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Inter-column predicate on the decoded pair (Eq. 3).
                if on.is_none_or(|c| c.eval(lv[i], rv[j])) {
                    match op {
                        Some(op) => {
                            rows.push(vec![Value::Int(lt[i]), Value::Int(op.apply(lv[i], rv[j]))])
                        }
                        None => rows.push(vec![
                            Value::Int(lt[i]),
                            Value::Int(lv[i]),
                            Value::Int(rv[j]),
                        ]),
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    rows
}

/// Merge join folding matched pairs into running moments — the non-fused
/// `PairAgg` merge node.
pub(crate) fn merge_join_moments(
    lt: &[i64],
    lv: &[i64],
    rt: &[i64],
    rv: &[i64],
    stats: &ExecStats,
) -> PairMoments {
    let _m = Stage::Merge.timer(stats);
    let mut acc = PairMoments::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        match lt[i].cmp(&rt[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc.push(lv[i], rv[j]);
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// The §IV fused pair aggregation: every moment comes straight from
/// `(Δ, run)` pairs of the two page-aligned Delta-RLE value columns. The
/// planner ([`crate::physical::pipe`]) verified the alignment (identical
/// clocks per page, bit for bit) before choosing this node.
pub(crate) fn fused_pair_aggregate(
    store: &SeriesStore,
    left: &[Arc<Page>],
    right: &[Arc<Page>],
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<PairMoments> {
    let _a = Stage::Agg.timer(stats);
    let mut m = PairMoments::default();
    for (a, b) in left.iter().zip(right) {
        // Serial fused loop: each page pair is the morsel boundary.
        ctl.check()?;
        charge_page_io(a, stats, store);
        charge_page_io(b, stats, store);
        // The fused kernels consume (Δ, run) pairs straight from the
        // chunk bytes, so checksum verification is the only thing
        // standing between a flipped bit and a silently wrong moment.
        a.ensure_verified().map_err(Error::Storage)?;
        b.ensure_verified().map_err(Error::Storage)?;
        let pa = delta_rle::parse(&a.val_bytes)?;
        let pb = delta_rle::parse(&b.val_bytes)?;
        m.sum_ab = m.sum_ab.saturating_add(dot_product_delta_rle(&pa, &pb)?);
        let sa = aggregate_delta_rle(&pa)?;
        let sb = aggregate_delta_rle(&pb)?;
        m.n += sa.count;
        m.sum_a += sa.sum;
        m.sum_b += sb.sum;
        m.sum_aa = m.sum_aa.saturating_add(sa.sum_sq);
        m.sum_bb = m.sum_bb.saturating_add(sb.sum_sq);
    }
    Ok(m)
}
