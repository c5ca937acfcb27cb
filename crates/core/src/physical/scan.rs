//! Scan-side operator bodies: §V header pruning, Algorithm 1 column
//! decode (with suffix pruning under value filters), and the
//! row-producing page scan.
//!
//! Only the `Pipe` planner ([`crate::physical::pipe`]) and the plan
//! verifier call [`page_verdict`]; the executor acts on the planner's
//! recorded decisions, unary and binary roots alike, so the pruning
//! rendered by `EXPLAIN` is by construction the one the executor does. A
//! §V verdict has three outcomes: pruned (no tuple can qualify), kept
//! with the conjuncts its header leaves open, and kept covered (every
//! tuple qualifies) — the last two are the page's
//! [`Predicate::residual`], which the planner, EXPLAIN and the executor
//! all take.
//!
//! A segment's verdict comes first, from its union header
//! ([`segment_verdict`]); only a mixed segment's pages get verdicts of
//! their own.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use etsqp_storage::page::{Page, PageHeader};
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::decode::{decode_column, decode_column_pruned, DecodeOptions};
use crate::exec::{run_jobs, ExecStats};
use crate::expr::Predicate;
use crate::physical::node::{HotScan, PruneVerdict, SegmentVerdict, Stage};
use crate::plan::PipelineConfig;
use crate::{Error, Result};

/// §V header pruning for one page header (or a segment's union): the
/// single pruning rule, applied by the planner and re-derived by the
/// verifier.
pub(crate) fn page_verdict(header: &PageHeader, pred: &Predicate, prune: bool) -> PruneVerdict {
    if !prune {
        return PruneVerdict::Kept;
    }
    if let Some(t) = pred.time {
        if !header.overlaps_time(t.lo, t.hi) {
            return PruneVerdict::PrunedTime;
        }
    }
    if let Some((lo, hi)) = pred.value {
        if !header.overlaps_value(lo, hi) {
            return PruneVerdict::PrunedValue;
        }
    }
    PruneVerdict::Kept
}

/// The §V verdict over a segment's union header: the union's verdict
/// holds for every page when it prunes by time, when it prunes by value
/// under a time conjunct that covers the union (no page can then be
/// pruned by time first), and when it keeps with a trivial residual
/// (every page covered); anything else is mixed.
pub(crate) fn segment_verdict(union: &PageHeader, pred: &Predicate, prune: bool) -> SegmentVerdict {
    match page_verdict(union, pred, prune) {
        PruneVerdict::PrunedTime => SegmentVerdict::Pruned(PruneVerdict::PrunedTime),
        PruneVerdict::PrunedValue if pred.time.is_none_or(|t| t.covers(union)) => {
            SegmentVerdict::Pruned(PruneVerdict::PrunedValue)
        }
        PruneVerdict::Kept if pred.residual(union, prune).is_trivial() => SegmentVerdict::Covered,
        _ => SegmentVerdict::Mixed,
    }
}

/// §V pruning verdict for a hot-chunk snapshot — the same rule as
/// [`page_verdict`], applied to the snapshot's exact statistics: the
/// sorted timestamp column bounds the time range, and min/max were
/// computed over the buffered values at snapshot time. No checksum
/// enters the decision — the columns were never encoded.
pub(crate) fn hot_verdict(
    ts: &[i64],
    min_value: i64,
    max_value: i64,
    pred: &Predicate,
    prune: bool,
) -> PruneVerdict {
    if !prune {
        return PruneVerdict::Kept;
    }
    if let (Some(t), Some(&first), Some(&last)) = (pred.time, ts.first(), ts.last()) {
        if last < t.lo || first > t.hi {
            return PruneVerdict::PrunedTime;
        }
    }
    if let Some((lo, hi)) = pred.value {
        if max_value < lo || min_value > hi {
            return PruneVerdict::PrunedValue;
        }
    }
    PruneVerdict::Kept
}

/// Filters a hot-chunk snapshot's rows through the pushed-down predicate
/// — the `SourceHot → Filter` chain. Charges the snapshot's tuples to
/// the §VII-B scan counters (no page/byte I/O: the buffer is decoded
/// memory, not encoded storage).
pub(crate) fn hot_rows(hot: &HotScan, pred: &Predicate, stats: &ExecStats) -> (Vec<i64>, Vec<i64>) {
    stats
        .tuples_scanned
        .fetch_add(hot.ts.len() as u64, Ordering::Relaxed);
    let _f = Stage::Filter.timer(stats);
    filter_rows(&hot.ts, &hot.vals, pred)
}

/// The rows of two aligned, time-ordered columns that pass `pred`: the
/// time conjunct is an index range, the value conjunct a per-row test.
fn filter_rows(ts: &[i64], vals: &[i64], pred: &Predicate) -> (Vec<i64>, Vec<i64>) {
    let (a, b) = pred.time.map_or((0, ts.len()), |t| t.index_range(ts));
    let (ts, vals) = (&ts[a..b], &vals[a..b]);
    match pred.value {
        None => (ts.to_vec(), vals.to_vec()),
        Some((lo, hi)) => ts
            .iter()
            .zip(vals)
            .filter(|&(_, &v)| v >= lo && v <= hi)
            .map(|(&t, &v)| (t, v))
            .unzip(),
    }
}

/// Charges a pruned hot snapshot's tuples to the throughput counters
/// (tuples only — a hot chunk is not a page and touches no encoded
/// bytes).
pub(crate) fn charge_pruned_hot(hot: &HotScan, stats: &ExecStats) {
    stats
        .tuples_pruned
        .fetch_add(hot.ts.len() as u64, Ordering::Relaxed);
}

/// Validates a page that a §V verdict is about to exclude. Pruning
/// trusts header min/max without decoding, so the checksum is the only
/// thing standing between a corrupted header and a silently wrong
/// pruned answer — a kept page is verified at decode anyway, but an
/// excluded one would otherwise never be looked at again. Hashed on the
/// first touch of a resident page object, its verified mark afterwards.
pub(crate) fn verify_pruned(page: &Page) -> Result<()> {
    page.ensure_verified().map_err(Error::Storage)
}

/// Charges a walk's pruned `(pages, tuples)`, counted on its thread, to
/// the §VII-B throughput counters, once.
pub(crate) fn charge_pruned(stats: &ExecStats, (pages, tuples): (u64, u64)) {
    stats.pages_pruned.fetch_add(pages, Ordering::Relaxed);
    stats.tuples_pruned.fetch_add(tuples, Ordering::Relaxed);
}

/// Charges one loaded page: I/O accounting for the `SourcePages` node.
pub(crate) fn charge_page_io(page: &Page, stats: &ExecStats, store: &SeriesStore) {
    let _io = Stage::Io.timer(stats);
    store.io().record_page(page.encoded_len());
    stats.pages_loaded.fetch_add(1, Ordering::Relaxed);
    stats
        .tuples_scanned
        .fetch_add(page.header.count as u64, Ordering::Relaxed);
}

/// Decodes a page's timestamp column (vectorized).
pub(crate) fn decode_ts_column(page: &Page, stats: &ExecStats) -> Result<Vec<i64>> {
    let _t = Stage::Unpack.timer(stats);
    let mut out = Vec::new();
    let opts = DecodeOptions {
        value_range: Some((page.header.first_ts, page.header.last_ts)),
    };
    decode_column(page.header.ts_encoding, &page.ts_bytes, &opts, &mut out)?;
    stats
        .materialized_bytes
        .fetch_add(out.len() as u64 * 8, Ordering::Relaxed);
    Ok(out)
}

/// Decodes the value column, applying suffix pruning (Propositions 4–5)
/// when a value filter is present: the walker checks after every block
/// and stops once the remaining suffix provably cannot match — the result
/// is then a prefix of the page, shorter than the header count.
pub(crate) fn decode_val_column(
    page: &Page,
    pred: &Predicate,
    cfg: &PipelineConfig,
    stats: &ExecStats,
) -> Result<Vec<i64>> {
    let _t = Stage::Delta.timer(stats);
    let mut out = Vec::new();
    let opts = DecodeOptions {
        value_range: Some((page.header.min_value, page.header.max_value)),
    };
    let pruned = decode_column_pruned(
        page.header.val_encoding,
        &page.val_bytes,
        &opts,
        pred.value.filter(|_| cfg.prune),
        &mut out,
    )?;
    if pruned > 0 {
        stats
            .tuples_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);
    }
    stats
        .materialized_bytes
        .fetch_add(out.len() as u64 * 8, Ordering::Relaxed);
    Ok(out)
}

/// Decodes the qualifying rows of a pre-pruned page set — the
/// `SourcePages → DecodeScan → Filter → MergeConcat` pipeline of
/// row-producing plans. The caller passes the pages the planner kept.
pub(crate) fn scan_rows(
    store: &SeriesStore,
    kept: Vec<Arc<Page>>,
    pred: &Predicate,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<(Vec<i64>, Vec<i64>)> {
    let outputs = run_jobs(
        kept,
        cfg.threads,
        stats,
        ctl,
        |page| -> Result<(Vec<i64>, Vec<i64>)> {
            charge_page_io(&page, stats, store);
            // The vectorized branch parses chunk bytes directly (no
            // Page::decode), so corruption must be caught here, before
            // any fast path trusts the payload.
            page.ensure_verified().map_err(Error::Storage)?;
            let (ts, vals) = if cfg.vectorized {
                let ts = decode_ts_column(&page, stats)?;
                let mut vals = Vec::new();
                {
                    let _d = Stage::Delta.timer(stats);
                    let opts = DecodeOptions {
                        value_range: Some((page.header.min_value, page.header.max_value)),
                    };
                    decode_column(page.header.val_encoding, &page.val_bytes, &opts, &mut vals)?;
                }
                (ts, vals)
            } else {
                page.decode().map_err(Error::Storage)?
            };
            if ts.len() != vals.len() || ts.len() != page.header.count as usize {
                // A corrupt payload can decode to a different length than the
                // header declares — fail cleanly instead of misaligning rows.
                return Err(Error::Decode("column length mismatch (corrupt page)"));
            }
            let _f = Stage::Filter.timer(stats);
            let residual = pred.residual(&page.header, cfg.prune);
            Ok(filter_rows(&ts, &vals, &residual))
        },
    )?;
    let _m = Stage::Merge.timer(stats);
    let mut all_ts = Vec::new();
    let mut all_vals = Vec::new();
    for out in outputs {
        let (t, v) = out?;
        all_ts.extend(t);
        all_vals.extend(v);
    }
    Ok((all_ts, all_vals))
}
