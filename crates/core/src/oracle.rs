//! Differential-testing oracle: a deliberately naive reference executor.
//!
//! Every fast path in this crate — vectorized unpacking, operator fusion
//! (§IV), pruning (§V) and multi-threaded scheduling (§III-C) —
//! is an *optimization* of one simple semantics: decode everything,
//! filter tuple by tuple, aggregate with exact arithmetic. This module
//! implements that semantics directly, with none of the optimizations:
//!
//! * every page is fully decoded with the serial reference decoders
//!   ([`Page::decode`]); no page pruning, no suffix pruning, no fusion,
//!   no threads;
//! * filters are evaluated per tuple, in time order;
//! * aggregates accumulate in `i128` ([`AggState`] / [`PairMoments`]),
//!   so no intermediate result ever wraps.
//!
//! The only code shared with the engine is the *output contract* —
//! [`finalize`]'s `Null`/`Int`/`Float` widening rules and the column
//! naming — because that is the surface being compared, not the
//! computation behind it. `tests/differential.rs` (repo root) sweeps
//! every [`PipelineConfig`](crate::plan::PipelineConfig) variant × codec
//! × dataset × query against this oracle.

use std::collections::BTreeMap;

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_simd::agg::AggState;
use etsqp_storage::store::SeriesStore;

use crate::expr::{AggFunc, BinOp, CmpOp, Plan, Predicate, SlidingWindow};
use crate::partial::PartialState;
use crate::physical::pipe::snapshot_unary;
use crate::plan::{finalize, finalize_pair, flatten_scan, PairMoments, Value};
use crate::{Error, Result};

/// Evaluates `plan` naively. Returns `(columns, rows)` shaped exactly
/// like [`crate::plan::execute`]'s `QueryResult` (same column names, same
/// row order, same `Value` widening), so results compare cell-for-cell.
pub fn execute(plan: &Plan, store: &SeriesStore) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
    match plan {
        Plan::Aggregate { input, func } => {
            let (series, pred) = flatten_scan(input)?;
            let tuples = scan_tuples(store, &series, &pred)?;
            let col = format!("{}({series})", func.name());
            Ok((vec![col], vec![vec![exact_agg(*func, &tuples)]]))
        }
        Plan::WindowAggregate {
            input,
            window,
            func,
        } => {
            let (series, pred) = flatten_scan(input)?;
            let tuples = scan_tuples(store, &series, &pred)?;
            let col = format!("{}({series})", func.name());
            let rows = window_tuples(&tuples, window)
                .into_iter()
                .map(|(k, bucket)| {
                    vec![
                        Value::Int(window.t_min + k as i64 * window.dt),
                        exact_agg(*func, &bucket),
                    ]
                })
                .collect();
            Ok((vec!["window_start".into(), col], rows))
        }
        Plan::Scan { .. } | Plan::Filter { .. } => {
            let (series, pred) = flatten_scan(plan)?;
            let t = scan_tuples(store, &series, &pred)?;
            let rows = (t.ts.iter().zip(&t.vals))
                .map(|(&ts, &v)| vec![Value::Int(ts), Value::of(v, t.float)])
                .collect();
            Ok((vec!["time".into(), series], rows))
        }
        Plan::Union { left, right } => {
            let (lt, lv, _, rt, rv, _) = both_sides(store, left, right)?;
            Ok((
                vec!["time".into(), "value".into()],
                union_rows(&lt, &lv, &rt, &rv),
            ))
        }
        Plan::Join { left, right, on } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let rows = join_rows(&lt, &lv, &rt, &rv, None, *on);
            Ok((vec!["time".into(), ls, rs], rows))
        }
        Plan::JoinExpr { left, right, op } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let rows = join_rows(&lt, &lv, &rt, &rv, Some(*op), None);
            Ok((vec!["time".into(), format!("{ls}.A op {rs}.A")], rows))
        }
        Plan::JoinAggregate { left, right, func } => {
            let (lt, lv, ls, rt, rv, rs) = both_sides(store, left, right)?;
            let mut m = PairMoments::default();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lt.len() && j < rt.len() {
                match lt[i].cmp(&rt[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        m.push(lv[i], rv[j]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            let col = format!("{}({ls}, {rs})", func.name());
            Ok((vec![col], vec![vec![finalize_pair(*func, m)]]))
        }
    }
}

/// The qualifying tuples of one series, in time order. On a float
/// series (`float`) the values are ordered keys, and `page[i]` is the
/// sealed page tuple `i` came from (`None`: the hot chunk): a float
/// SUM's rounding depends on that grouping. An integer series' exact
/// moments do not, and leave `page` empty.
#[derive(Default)]
struct Tuples {
    ts: Vec<i64>,
    vals: Vec<i64>,
    page: Vec<Option<usize>>,
    float: bool,
}

impl Tuples {
    /// Appends one tuple of `page`.
    fn push(&mut self, t: i64, v: i64, page: Option<usize>) {
        self.ts.push(t);
        self.vals.push(v);
        if self.float {
            self.page.push(page);
        }
    }

    /// Appends the tuples of `(ts, vals)` that pass `pred`.
    fn extend(&mut self, ts: &[i64], vals: &[i64], page: Option<usize>, pred: &Predicate) {
        for (&t, &v) in ts.iter().zip(vals) {
            if tuple_qualifies(pred, t, v) {
                self.push(t, v, page);
            }
        }
    }
}

/// Whether one tuple passes the conjunctive predicate.
fn tuple_qualifies(pred: &Predicate, t: i64, v: i64) -> bool {
    if let Some(tr) = pred.time {
        if !tr.contains(t) {
            return false;
        }
    }
    if let Some((lo, hi)) = pred.value {
        if v < lo || v > hi {
            return false;
        }
    }
    true
}

/// Decodes every sealed page of `series` with the serial reference
/// decoders, then walks the hot chunk's buffered columns — both halves
/// of one atomic [`SeriesStore::snapshot`], so the oracle sees exactly
/// the prefix of the append stream a concurrently planned engine query
/// would. The snapshot is the planner's, unpruned: a float column is
/// read as its ordered keys, hot chunk included. Tuples pass `pred` one
/// at a time.
fn scan_tuples(store: &SeriesStore, series: &str, pred: &Predicate) -> Result<Tuples> {
    let (segments, hot, float) = snapshot_unary(store, series, &Predicate::default(), false)?;
    let mut out = Tuples {
        float,
        ..Tuples::default()
    };
    let pages = segments.iter().flat_map(|s| s.pages());
    for (i, page) in pages.enumerate() {
        let (ts, vals) = page.decode()?;
        out.extend(&ts, &vals, Some(i), pred);
    }
    if let Some(hot) = hot {
        out.extend(&hot.ts, &hot.vals, None, pred);
    }
    Ok(out)
}

/// The exact (reference) aggregate over time-ordered qualifying tuples.
///
/// * Quantiles use the **nearest-rank** definition over a full sorted
///   copy — `sorted[round(q·(n−1))]`, of the finite values on a float
///   series (the sketch takes no other). The engine's t-digest answer is
///   *not* expected to match this bit-for-bit; the differential harness
///   compares by rank within [`crate::partial::TDigest::rank_error_bound`].
/// * `RATE`/`DELTA` use the same `i128` first/last formulas as
///   [`finalize`], so they compare bit-exact.
/// * A float series' other aggregates are [`float_agg`]'s.
/// * Everything else accumulates through [`AggState`] and shares
///   [`finalize`]'s widening rules with the engine.
fn exact_agg(func: AggFunc, t: &Tuples) -> Value {
    let (ts, vals) = (&t.ts, &t.vals);
    if vals.is_empty() {
        return Value::Null;
    }
    if let Some(q) = func.quantile() {
        let finite = |&k: &i64| !t.float || ordered_i64_to_f64(k).is_finite();
        let mut sorted: Vec<i64> = vals.iter().copied().filter(finite).collect();
        sorted.sort_unstable();
        let idx = ((sorted.len().max(1) - 1) as f64 * q).round() as usize;
        return match sorted.get(idx) {
            Some(&v) if t.float => Value::Float(ordered_i64_to_f64(v)),
            Some(&v) => Value::Float(v as f64),
            None => Value::Null,
        };
    }
    if t.float {
        return float_agg(func, t);
    }
    match func {
        AggFunc::Rate => {
            let (ft, lt) = (ts[0], ts[ts.len() - 1]);
            if ft == lt {
                return Value::Null; // fewer than two distinct instants
            }
            let dv = vals[vals.len() - 1] as i128 - vals[0] as i128;
            let dt = lt as i128 - ft as i128;
            Value::Float(dv as f64 / dt as f64)
        }
        AggFunc::Delta => {
            let dv = vals[vals.len() - 1] as i128 - vals[0] as i128;
            i64::try_from(dv)
                .map(Value::Int)
                .unwrap_or(Value::Float(dv as f64))
        }
        _ => {
            let mut state = AggState::new();
            for &v in vals {
                state.push(v);
            }
            finalize(func, &PartialState::from(state))
        }
    }
}

/// A float series' reference aggregate, in the summation order that
/// defines its real moments: each sealed page's tuples from zero into
/// one partial, the partials added in storage order, hot tuples pushed
/// last one at a time; [`finalize`] reads the result.
fn float_agg(func: AggFunc, t: &Tuples) -> Value {
    let mut total = PartialState::new_for(func, true);
    let mut part: Option<(usize, PartialState)> = None;
    for ((&ts, &v), &page) in t.ts.iter().zip(&t.vals).zip(&t.page) {
        if part.as_ref().map(|p| Some(p.0)) != Some(page) {
            if let Some((_, done)) = part.take() {
                total.merge(&done);
            }
            part = page.map(|i| (i, PartialState::new_for(func, true)));
        }
        match &mut part {
            Some((_, p)) => p.push_tv(ts, v),
            None => total.push_tv(ts, v),
        }
    }
    if let Some((_, done)) = part {
        total.merge(&done);
    }
    finalize(func, &total)
}

/// Buckets qualifying tuples into per-window tuple lists, ascending by
/// window index; only non-empty windows appear (matching the engine
/// contract). Tuples stay in time order inside each bucket, which the
/// order-sensitive reference aggregates (FIRST/LAST/RATE/DELTA) rely on.
fn window_tuples(t: &Tuples, w: &SlidingWindow) -> Vec<(usize, Tuples)> {
    let mut windows: BTreeMap<usize, Tuples> = BTreeMap::new();
    for (i, &ts) in t.ts.iter().enumerate() {
        if let Some(k) = w.window_of(ts) {
            let bucket = windows.entry(k).or_insert_with(|| Tuples {
                float: t.float,
                ..Tuples::default()
            });
            bucket.push(ts, t.vals[i], t.page.get(i).copied().flatten());
        }
    }
    windows.into_iter().collect()
}

/// Flattens + scans both inputs of a binary plan node.
#[allow(clippy::type_complexity)]
fn both_sides(
    store: &SeriesStore,
    left: &Plan,
    right: &Plan,
) -> Result<(Vec<i64>, Vec<i64>, String, Vec<i64>, Vec<i64>, String)> {
    let (ls, lp) = flatten_scan(left)?;
    let (rs, rp) = flatten_scan(right)?;
    let (l, r) = (scan_tuples(store, &ls, &lp)?, scan_tuples(store, &rs, &rp)?);
    if let Some(s) = [(&l, &ls), (&r, &rs)].iter().find(|(t, _)| t.float) {
        return Err(Error::Plan(format!("{} is a float series", s.1)));
    }
    Ok((l.ts, l.vals, ls, r.ts, r.vals, rs))
}

/// Time-ordered two-way merge; ties emit the left tuple first.
fn union_rows(lt: &[i64], lv: &[i64], rt: &[i64], rv: &[i64]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(lt.len() + rt.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < lt.len() || j < rt.len() {
        let take_left = match (lt.get(i), rt.get(j)) {
            (Some(&a), Some(&b)) => a <= b,
            (Some(_), None) => true,
            _ => false,
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

/// Natural (equal-timestamp) merge join. With `op`, emits
/// `(t, op(a, b))`; without, `(t, a, b)` filtered by the optional `on`.
fn join_rows(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, TimeRange};
    use crate::plan::{execute as engine_execute, PipelineConfig};
    use etsqp_encoding::Encoding;

    fn store_with(series: &str, ts: &[i64], vals: &[i64]) -> SeriesStore {
        let store = SeriesStore::new(128);
        store.create_series(series, Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append_all(series, ts, vals).unwrap();
        store.flush(series).unwrap();
        store
    }

    #[test]
    fn oracle_matches_engine_on_simple_aggregate() {
        let ts: Vec<i64> = (0..500).map(|i| i * 10).collect();
        let vals: Vec<i64> = (0..500).map(|i| 40 + i % 13).collect();
        let store = store_with("s", &ts, &vals);
        let plan = Plan::scan("s")
            .filter(Predicate {
                time: Some(TimeRange { lo: 100, hi: 4200 }),
                value: Some((41, 50)),
            })
            .aggregate(AggFunc::Sum);
        let (ocols, orows) = execute(&plan, &store).unwrap();
        let got = engine_execute(&plan, &store, &PipelineConfig::default()).unwrap();
        assert_eq!(ocols, got.columns);
        assert_eq!(orows, got.rows);
    }

    #[test]
    fn oracle_aggregate_is_exact_in_i128() {
        // Two values whose sum exceeds i64: the oracle must widen, not
        // wrap (the engine's §VI-C contract).
        let store = store_with("w", &[0, 10], &[i64::MAX - 1, i64::MAX - 1]);
        let plan = Plan::scan("w").aggregate(AggFunc::Sum);
        let (_, rows) = execute(&plan, &store).unwrap();
        let want = (i64::MAX - 1) as f64 * 2.0;
        match rows[0][0] {
            Value::Float(f) => assert_eq!(f, want),
            other => panic!("expected widened Float, got {other:?}"),
        }
    }

    #[test]
    fn oracle_rejects_non_scan_aggregate_input() {
        let store = store_with("s", &[0], &[1]);
        let bad = Plan::Aggregate {
            input: Box::new(Plan::Union {
                left: Box::new(Plan::scan("s")),
                right: Box::new(Plan::scan("s")),
            }),
            func: AggFunc::Sum,
        };
        assert!(execute(&bad, &store).is_err());
    }

    #[test]
    fn oracle_window_rows_only_for_nonempty_windows() {
        // Gap between t=0..40 and t=1000..1040: middle windows are absent.
        let ts = [0, 10, 20, 30, 40, 1000, 1010, 1020, 1030, 1040];
        let vals = [1i64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let store = store_with("g", &ts, &vals);
        let plan = Plan::scan("g").window(0, 100, AggFunc::Count);
        let (_, rows) = execute(&plan, &store).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(5)]);
        assert_eq!(rows[1], vec![Value::Int(1000), Value::Int(5)]);
    }
}
