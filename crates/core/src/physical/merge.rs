//! Binary merge nodes (Figure 9): time-partitioned `MergeUnion` /
//! `MergeJoin` over the two decoded sides, and the one equal-timestamp
//! walk that joins and pair aggregates share.
//!
//! Each side of a binary operator is scanned like a `SELECT *` pipeline
//! (see [`crate::physical::driver`]): planner decisions prune its pages,
//! its hot chunk appends after its sealed rows, and what arrives here are
//! two time-ordered `(ts, value)` columns. The partition boundaries are
//! planner output ([`crate::physical::pipe`] computes them from page
//! headers and stores them in the [`crate::physical::node::RootNode`]);
//! this module only splits the columns at them: one scheduler job per
//! time range, each merging its index slices of both sides, with outputs
//! concatenating in partition order.

use std::sync::Arc;

use etsqp_storage::page::Page;

use crate::cancel::CancellationToken;
use crate::exec::{run_jobs, ExecStats};
use crate::expr::{BinOp, CmpOp, TimeRange};
use crate::physical::node::Stage;
use crate::plan::Value;
use crate::Result;

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
pub(crate) fn merge_partitions<'a>(
    pages: impl Iterator<Item = &'a Arc<Page>>,
    threads: usize,
) -> Vec<TimeRange> {
    let mut cuts: Vec<i64> = pages.map(|page| page.header.first_ts).collect();
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

/// One decoded side of a binary operator: its time-ordered
/// `(timestamps, values)` columns.
pub(crate) type Columns = (Vec<i64>, Vec<i64>);

/// Executes `Union` / `Join` / `JoinExpr` over the planner's partitions:
/// every partition takes the index slices of both decoded sides that fall
/// in its range and merges them independently; outputs concatenate in
/// partition order.
pub(crate) fn merge_partitioned(
    (lt, lv): &Columns,
    (rt, rv): &Columns,
    ranges: &[TimeRange],
    kind: BinaryKind,
    threads: usize,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<Vec<Vec<Value>>> {
    let outputs = run_jobs(ranges.to_vec(), threads, stats, ctl, |range| {
        let (la, lb) = range.index_range(lt);
        let (ra, rb) = range.index_range(rt);
        let (lt, lv, rt, rv) = (&lt[la..lb], &lv[la..lb], &rt[ra..rb], &rv[ra..rb]);
        let _m = Stage::Merge.timer(stats);
        match kind {
            BinaryKind::Union => merge_union(lt, lv, rt, rv),
            BinaryKind::Join { op, on } => merge_join(lt, lv, rt, rv, op, on),
        }
    })?;
    Ok(outputs.into_iter().flatten().collect())
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

/// The equal-timestamp walk of two ascending timestamp columns: calls
/// `sink(i, j)` for every `lt[i] == rt[j]`, in time order.
pub(crate) fn join_walk(lt: &[i64], rt: &[i64], mut sink: impl FnMut(usize, usize)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() && j < rt.len() {
        match lt[i].cmp(&rt[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sink(i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Merge join on equal timestamps (Q4/Q6). With `op`, emits
/// `(t, op(a, b))`; without, emits `(t, a, b)`. A pair failing the
/// inter-column predicate `on` (Eq. 3) emits nothing.
pub(crate) fn merge_join(
    lt: &[i64],
    lv: &[i64],
    rt: &[i64],
    rv: &[i64],
    op: Option<BinOp>,
    on: Option<CmpOp>,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    join_walk(lt, rt, |i, j| {
        let (t, a, b) = (lt[i], lv[i], rv[j]);
        if on.is_none_or(|c| c.eval(a, b)) {
            rows.push(match op {
                Some(op) => vec![Value::Int(t), Value::Int(op.apply(a, b))],
                None => vec![Value::Int(t), Value::Int(a), Value::Int(b)],
            });
        }
    });
    rows
}
