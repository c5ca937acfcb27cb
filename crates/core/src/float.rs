//! Float-series queries: aggregation and scans over `f64` value columns
//! stored with the XOR codec family (GorillaFloat / Chimp / Elf).
//!
//! XOR codecs expose no Delta statistics, so the §IV fusion and §V suffix
//! rules do not apply (consistent with the paper, whose fused operators
//! are defined on Delta/Delta-Repeat formats). What *does* carry over:
//!
//! * **page-level pruning** — float min/max live in page headers through
//!   the order-preserving `f64 → i64` mapping, so time ranges *and* float
//!   value ranges skip pages without decoding (each skipped page
//!   checksum-verified once, as on the integer path: the header it was
//!   judged by must be the one that was sealed);
//! * **core-level parallelism** — pages decode as independent jobs on the
//!   scheduler; partials combine in a merge fold.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use etsqp_encoding::f64_to_ordered_i64;
#[cfg(test)]
use etsqp_encoding::Encoding;
use etsqp_storage::ingest::{HotFloatSnapshot, HotSnapshot};
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::exec::{run_jobs, ExecStats, StatsSnapshot};
use crate::expr::{AggFunc, TimeRange};
use crate::physical::node::Stage;
use crate::physical::scan::{charge_page_io, charge_pruned_page, verify_pruned};
use crate::plan::PipelineConfig;
use crate::{Error, Result};

/// Aggregate state over float values (merged across page jobs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatAgg {
    /// Σ of qualifying values.
    pub sum: f64,
    /// Number of qualifying values.
    pub count: u64,
    /// Minimum, if any value qualified.
    pub min: Option<f64>,
    /// Maximum, if any value qualified.
    pub max: Option<f64>,
    /// Σ v² (for variance).
    pub sum_sq: f64,
}

impl FloatAgg {
    /// Folds one value.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        self.count += 1;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Folds the values inside the optional range (NaN never matches
    /// one).
    fn push_in_range(&mut self, vals: &[f64], vrange: Option<FloatRange>) {
        for &v in vals {
            if vrange.is_none_or(|r| v >= r.lo && v <= r.hi) {
                self.push(v);
            }
        }
    }

    /// Merges another partial.
    pub fn merge(&mut self, o: &FloatAgg) {
        self.sum += o.sum;
        self.sum_sq += o.sum_sq;
        self.count += o.count;
        self.min = match (self.min, o.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, o.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Mean; `None` when empty.
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance; `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| {
            let n = self.count as f64;
            // Clamp: population variance is non-negative, but the
            // E[x²]−mean² form can round below zero in f64.
            (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0)
        })
    }

    /// Finalizes to the requested function's value; `None` when empty.
    pub fn finish(&self, func: AggFunc) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        match func {
            AggFunc::Sum => Some(self.sum),
            AggFunc::Count => Some(self.count as f64),
            AggFunc::Avg => self.avg(),
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Variance => self.variance(),
            // First/last qualifying float values are not tracked by this
            // state (the float path targets algebraic aggregates), and
            // the partial-only functions (quantile sketches, rate/delta)
            // need a PartialState the float path does not build.
            AggFunc::First
            | AggFunc::Last
            | AggFunc::P50
            | AggFunc::P95
            | AggFunc::P99
            | AggFunc::Rate
            | AggFunc::Delta => None,
        }
    }
}

/// A float range filter `[lo, hi]` (inclusive, NaN never matches).
#[derive(Debug, Clone, Copy)]
pub struct FloatRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// Aggregates a float series over optional time and value ranges.
///
/// Pages outside either range are pruned from their headers alone (the
/// value bounds compare in the order-preserving mapped domain).
pub fn aggregate_f64(
    store: &SeriesStore,
    series: &str,
    trange: Option<TimeRange>,
    vrange: Option<FloatRange>,
    cfg: &PipelineConfig,
) -> Result<(FloatAgg, StatsSnapshot)> {
    aggregate_f64_ctl(
        store,
        series,
        trange,
        vrange,
        cfg,
        &CancellationToken::none(),
    )
}

/// [`aggregate_f64`] under a cancellation token (checked per page job).
pub fn aggregate_f64_ctl(
    store: &SeriesStore,
    series: &str,
    trange: Option<TimeRange>,
    vrange: Option<FloatRange>,
    cfg: &PipelineConfig,
    ctl: &CancellationToken,
) -> Result<(FloatAgg, StatsSnapshot)> {
    let stats = ExecStats::default();
    let (pages, hot) = float_snapshot(store, series)?;
    let mapped = vrange.map(|r| (f64_to_ordered_i64(r.lo), f64_to_ordered_i64(r.hi)));
    let (kept, pruned): (Vec<_>, Vec<_>) = pages.into_iter().partition(|page| {
        !cfg.prune
            || (trange.is_none_or(|t| page.header.overlaps_time(t.lo, t.hi))
                && mapped.is_none_or(|(lo, hi)| page.header.overlaps_value(lo, hi)))
    });
    for page in &pruned {
        verify_pruned(page)?;
        charge_pruned_page(page, &stats);
    }
    let outputs = run_jobs(kept, cfg.threads, &stats, ctl, |page| -> Result<FloatAgg> {
        charge_page_io(&page, &stats, store);
        let (ts, vals) = {
            let _delta = Stage::Delta.timer(&stats);
            page.decode_f64().map_err(Error::Storage)?
        };
        let _agg = Stage::Agg.timer(&stats);
        let (a, b) = index_range(trange, &ts);
        let mut agg = FloatAgg::default();
        agg.push_in_range(&vals[a..b], vrange);
        Ok(agg)
    })?;
    let mut total = FloatAgg::default();
    for out in outputs {
        total.merge(&out?);
    }
    // Fold the hot chunk's buffered points (same filters, no page I/O):
    // queries see a float point the moment `append_f64` returns.
    if let Some(h) = &hot {
        stats
            .tuples_scanned
            .fetch_add(h.ts.len() as u64, Ordering::Relaxed);
        let _agg = Stage::Agg.timer(&stats);
        let (a, b) = index_range(trange, &h.ts);
        total.push_in_range(&h.vals[a..b], vrange);
    }
    Ok((total, stats.snapshot()))
}

/// A float series' sealed pages and hot points; an integer series, hot
/// or sealed, is a typed plan error.
fn float_snapshot(
    store: &SeriesStore,
    series: &str,
) -> Result<(Vec<Arc<Page>>, Option<HotFloatSnapshot>)> {
    let snap = store.snapshot(series)?;
    let not_float = || Err(Error::Plan(format!("{series} is not a float series")));
    if (snap.pages.first()).is_some_and(|p| !p.header.val_encoding.is_float()) {
        return not_float();
    }
    match snap.hot {
        Some(HotSnapshot::Int(_)) => not_float(),
        Some(HotSnapshot::Float(h)) => Ok((snap.pages, Some(h))),
        None => Ok((snap.pages, None)),
    }
}

/// Ordered timestamps make the optional time filter a half-open index
/// range (the whole column without one).
fn index_range(trange: Option<TimeRange>, ts: &[i64]) -> (usize, usize) {
    trange.map_or((0, ts.len()), |t| t.index_range(ts))
}

/// Scans a float series' qualifying rows.
pub fn scan_f64(
    store: &SeriesStore,
    series: &str,
    trange: Option<TimeRange>,
    cfg: &PipelineConfig,
) -> Result<(Vec<i64>, Vec<f64>)> {
    scan_f64_ctl(store, series, trange, cfg, &CancellationToken::none())
}

/// [`scan_f64`] under a cancellation token (checked per page job).
pub fn scan_f64_ctl(
    store: &SeriesStore,
    series: &str,
    trange: Option<TimeRange>,
    cfg: &PipelineConfig,
    ctl: &CancellationToken,
) -> Result<(Vec<i64>, Vec<f64>)> {
    let stats = ExecStats::default();
    let (pages, hot) = float_snapshot(store, series)?;
    let (kept, pruned): (Vec<_>, Vec<_>) = (pages.into_iter())
        .partition(|p| !cfg.prune || trange.is_none_or(|t| p.header.overlaps_time(t.lo, t.hi)));
    pruned.iter().try_for_each(|page| verify_pruned(page))?;
    let outputs = run_jobs(
        kept,
        cfg.threads,
        &stats,
        ctl,
        |page| -> Result<(Vec<i64>, Vec<f64>)> {
            store.io().record_page(page.encoded_len());
            let (ts, vals) = page.decode_f64().map_err(Error::Storage)?;
            let (a, b) = index_range(trange, &ts);
            Ok((ts[a..b].to_vec(), vals[a..b].to_vec()))
        },
    )?;
    let mut all_ts = Vec::new();
    let mut all_vals = Vec::new();
    for out in outputs {
        let (t, v) = out?;
        all_ts.extend(t);
        all_vals.extend(v);
    }
    // Hot rows follow every sealed row (their timestamps are strictly
    // greater), so the scan stays time-ordered.
    if let Some(h) = &hot {
        let (a, b) = index_range(trange, &h.ts);
        all_ts.extend_from_slice(&h.ts[a..b]);
        all_vals.extend_from_slice(&h.vals[a..b]);
    }
    Ok((all_ts, all_vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_store(enc: Encoding) -> (SeriesStore, Vec<i64>, Vec<f64>) {
        let store = SeriesStore::new(256);
        store.create_series_f64("t", Encoding::Ts2Diff, enc);
        let ts: Vec<i64> = (0..3000).map(|i| i * 10).collect();
        let vals: Vec<f64> = (0..3000)
            .map(|i| 20.0 + (i as f64 * 0.01).sin() * 5.0)
            .collect();
        for (&t, &v) in ts.iter().zip(&vals) {
            store.append_f64("t", t, v).unwrap();
        }
        store.flush("t").unwrap();
        (store, ts, vals)
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn full_aggregate_matches_naive_for_all_float_codecs() {
        for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
            let (store, _, vals) = float_store(enc);
            let (agg, stats) = aggregate_f64(&store, "t", None, None, &cfg()).unwrap();
            let want: f64 = vals.iter().sum();
            assert!((agg.sum - want).abs() < 1e-6, "{}", enc.name());
            assert_eq!(agg.count, 3000);
            assert_eq!(stats.tuples_scanned, 3000);
            let naive_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(agg.min.unwrap(), naive_min);
        }
    }

    #[test]
    fn time_range_prunes_pages() {
        let (store, ts, vals) = float_store(Encoding::Chimp);
        let tr = TimeRange {
            lo: ts[1000],
            hi: ts[1999],
        };
        let (agg, stats) = aggregate_f64(&store, "t", Some(tr), None, &cfg()).unwrap();
        let want: f64 = vals[1000..2000].iter().sum();
        assert!((agg.sum - want).abs() < 1e-6);
        assert_eq!(agg.count, 1000);
        assert!(stats.pages_pruned > 0, "header pruning must fire");
    }

    #[test]
    fn float_value_range_prunes_and_filters() {
        let (store, _, vals) = float_store(Encoding::GorillaFloat);
        let range = FloatRange { lo: 22.5, hi: 24.0 };
        let (agg, _) = aggregate_f64(&store, "t", None, Some(range), &cfg()).unwrap();
        let want_count = vals.iter().filter(|&&v| (22.5..=24.0).contains(&v)).count() as u64;
        assert_eq!(agg.count, want_count);
        // Out-of-domain range prunes everything at the header level.
        let (agg, stats) = aggregate_f64(
            &store,
            "t",
            None,
            Some(FloatRange {
                lo: 100.0,
                hi: 200.0,
            }),
            &cfg(),
        )
        .unwrap();
        assert_eq!(agg.count, 0);
        assert_eq!(stats.pages_loaded, 0, "all pages header-pruned");
    }

    #[test]
    fn scan_returns_rows_in_order() {
        let (store, ts, vals) = float_store(Encoding::Elf);
        let (t2, v2) = scan_f64(&store, "t", None, &cfg()).unwrap();
        assert_eq!(t2, ts);
        assert_eq!(v2.len(), vals.len());
        for (a, b) in v2.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nan_values_never_match_ranges() {
        let store = SeriesStore::new(64);
        store.create_series_f64("n", Encoding::Ts2Diff, Encoding::Chimp);
        for i in 0..100i64 {
            let v = if i % 10 == 0 { f64::NAN } else { i as f64 };
            store.append_f64("n", i, v).unwrap();
        }
        store.flush("n").unwrap();
        let (agg, _) = aggregate_f64(
            &store,
            "n",
            None,
            Some(FloatRange {
                lo: f64::MIN,
                hi: f64::MAX,
            }),
            &cfg(),
        )
        .unwrap();
        assert_eq!(agg.count, 90);
        assert!(agg.sum.is_finite());
    }

    #[test]
    fn integer_series_rejected() {
        let store = SeriesStore::new(64);
        for (name, seal) in [("hot", false), ("sealed", true)] {
            store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
            store.append(name, 1, 1).unwrap();
            if seal {
                store.flush(name).unwrap();
            }
            let agg = aggregate_f64(&store, name, None, None, &cfg());
            assert!(matches!(agg, Err(Error::Plan(_))), "{name}: {agg:?}");
            let scan = scan_f64(&store, name, None, &cfg());
            assert!(matches!(scan, Err(Error::Plan(_))), "{name}: {scan:?}");
        }
    }

    #[test]
    fn variance_matches_naive() {
        let (store, _, vals) = float_store(Encoding::Chimp);
        let (agg, _) = aggregate_f64(&store, "t", None, None, &cfg()).unwrap();
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let want = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!((agg.variance().unwrap() - want).abs() < 1e-6);
        assert!((agg.finish(AggFunc::Variance).unwrap() - want).abs() < 1e-6);
    }
}
