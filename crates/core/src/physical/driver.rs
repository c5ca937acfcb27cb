//! The pipeline driver: maps a compiled [`PhysicalPlan`]'s pages onto the
//! work-stealing pool and stitches the partials back together —
//! aggregate partial states through `MergeConcat`, binary operators
//! through their partitioned merge nodes. Each side of a binary operator
//! runs the one row pipeline a `SELECT *` runs, one job per kept page.
//!
//! An aggregation's job is a segment morsel: a maximal run of
//! consecutive dispatched pages inside one segment and one
//! [`SEGMENT_PAGES`] digest group, which a page or segment served on the
//! calling thread ends, folded in page order by
//! [`crate::physical::agg::agg_morsel`]. Fewer runs than threads over
//! more pages than threads are cut evenly, so a one-segment query keeps
//! its parallelism. Morsels return in page order, served runs sit
//! between them, so the merge node sees kept-page time order as before.
//!
//! An aggregation's calling thread does the page work that needs no
//! job: it discharges the pruned pages and folds every `[cacheable]` page
//! whose memo answers the aggregate (header plus memo, see
//! [`crate::physical::agg`]), so only the remaining pages are dispatched
//! — none at all when every kept page is memoized.
//!
//! An aggregation walks segments, not pages: a segment pruned whole is
//! discharged with one charge, and a cacheable segment its memo answers
//! is one state, once the segment's all-verified mark is set. A row
//! pipeline discharges page by page. Any other
//! segment descends to its pages exactly as a page list would, and a
//! cacheable one it descended into publishes its mark and memo after the
//! query's folds, for the next query to read.
//!
//! A quantile merges its digests in one fixed tree, whatever is memoized,
//! however many threads run and however the store cut its segments: the
//! kept pages of each group of [`SEGMENT_PAGES`] consecutive page
//! indices, within one bucket, merge in storage order into a fresh state,
//! whose digest is compressed once and then merged into the bucket (the
//! hot chunk last, as for every aggregate). A segment that is exactly
//! one group keeps that digest, so a warm quantile reads one digest per
//! segment where a cold one folds and merges its pages.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use etsqp_storage::page::Page;
use etsqp_storage::segment::{Segment, SEGMENT_PAGES};
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::exec::{run_jobs, ExecStats};
use crate::expr::{AggFunc, Predicate, SlidingWindow};
use crate::partial::{PartialState, TDigest};
use crate::physical::agg::{
    agg_morsel, fold_tuples, memoized, memoized_segment, merge_states, PageJob, WindowStates,
};
use crate::physical::merge::{join_walk, merge_partitioned, BinaryKind, Columns};
use crate::physical::node::{PageDecision, RootNode, SegmentVerdict, SeriesPipeline, Stage};
use crate::physical::pipe::PhysicalPlan;
use crate::physical::scan::{charge_pruned, charge_pruned_hot, hot_rows, scan_rows, verify_pruned};
use crate::plan::{finalize, finalize_pair, PairMoments, PipelineConfig, Value};
use crate::{Error, Result};

/// Executes a compiled plan, returning column names and rows.
pub(crate) fn run(
    phys: &PhysicalPlan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
    // A query whose deadline already passed never starts a morsel.
    ctl.check()?;
    match &phys.root {
        RootNode::Aggregate { func, window } => {
            let p = &phys.pipelines[0];
            let per_window = aggregate_pipeline(store, p, *window, *func, cfg, stats, ctl)?;
            let col = format!("{}({})", func.name(), p.series);
            Ok(match window {
                Some(w) => {
                    let rows = per_window
                        .into_iter()
                        .map(|(k, s)| {
                            vec![Value::Int(w.t_min + k as i64 * w.dt), finalize(*func, &s)]
                        })
                        .collect();
                    (vec!["window_start".into(), col], rows)
                }
                // A whole-range aggregate is bucket 0 alone, and answers
                // one row (`Null`) even when nothing qualified. Partials
                // arrive merged in kept-page time order (hot last), which
                // keeps FIRST/LAST, timestamp bounds and sketch merges
                // exact per the PartialState::merge contract.
                None => {
                    let state =
                        per_window
                            .into_iter()
                            .fold(PartialState::new(*func), |mut acc, (_, s)| {
                                acc.merge(&s);
                                acc
                            });
                    (vec![col], vec![vec![finalize(*func, &state)]])
                }
            })
        }
        RootNode::Rows => {
            let p = &phys.pipelines[0];
            let (ts, vals) = pipeline_rows(store, p, cfg, stats, ctl)?;
            let rows = ts
                .into_iter()
                .zip(vals)
                .map(|(t, v)| vec![Value::Int(t), Value::of(v, p.float)])
                .collect();
            Ok((vec!["time".into(), p.series.clone()], rows))
        }
        RootNode::Union { partitions } => {
            let (l, r) = binary_rows(phys, store, cfg, stats, ctl)?;
            let rows = merge_partitioned(
                &l,
                &r,
                partitions,
                BinaryKind::Union,
                cfg.threads,
                stats,
                ctl,
            )?;
            Ok((vec!["time".into(), "value".into()], rows))
        }
        RootNode::Join { partitions, op, on } => {
            let (l, r) = binary_rows(phys, store, cfg, stats, ctl)?;
            let rows = merge_partitioned(
                &l,
                &r,
                partitions,
                BinaryKind::Join { op: *op, on: *on },
                cfg.threads,
                stats,
                ctl,
            )?;
            let (ls, rs) = (&phys.pipelines[0].series, &phys.pipelines[1].series);
            let columns = match op {
                Some(_) => vec!["time".into(), format!("{ls}.A op {rs}.A")],
                None => vec!["time".into(), ls.clone(), rs.clone()],
            };
            Ok((columns, rows))
        }
        RootNode::PairAgg { func } => {
            let ((lt, lv), (rt, rv)) = binary_rows(phys, store, cfg, stats, ctl)?;
            // One walk on the calling thread, in time order: the pushes
            // saturate in the order the oracle's do, so every moment is
            // bit-identical to it at any thread count and under any codec.
            let mut moments = PairMoments::default();
            {
                let _m = Stage::Merge.timer(stats);
                join_walk(&lt, &rt, |i, j| moments.push(lv[i], rv[j]));
            }
            let (ls, rs) = (&phys.pipelines[0].series, &phys.pipelines[1].series);
            let col = format!("{}({ls}, {rs})", func.name());
            Ok((vec![col], vec![vec![finalize_pair(*func, moments)]]))
        }
    }
}

/// The rows of one pipeline, as a `SELECT *` scan produces them: the
/// planner's pruned pages discharged once, the kept pages scanned on the
/// pool, and the hot snapshot's qualifying rows appended last (their
/// timestamps are strictly greater than every sealed one, so time order
/// holds) or its tuples charged as pruned.
fn pipeline_rows(
    store: &SeriesStore,
    p: &SeriesPipeline,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<Columns> {
    let (mut ts, mut vals) = scan_rows(store, kept_of(p, stats)?, &p.pred, cfg, stats, ctl)?;
    if let Some(hot) = &p.hot {
        if hot.verdict.kept() {
            let (ht, hv) = hot_rows(hot, &p.pred, stats);
            ts.extend(ht);
            vals.extend(hv);
        } else {
            charge_pruned_hot(hot, stats);
        }
    }
    Ok((ts, vals))
}

/// Both sides of a binary operator, each run as its own `SELECT *`.
fn binary_rows(
    phys: &PhysicalPlan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<(Columns, Columns)> {
    let left = pipeline_rows(store, &phys.pipelines[0], cfg, stats, ctl)?;
    let right = pipeline_rows(store, &phys.pipelines[1], cfg, stats, ctl)?;
    Ok((left, right))
}

/// Drops one pruned page: obligation, checksum, then its count into the
/// walk's `(pages, tuples)`, charged once by [`charge_pruned`].
/// The obligation is the driver-side half of the §V verify-before-prune
/// discipline: a decision without it means the plan was tampered with or
/// a planner bug slipped past the verifier, so the query is refused
/// rather than silently skipping data. Pruned pages are
/// checksum-verified (once per resident page object) before being
/// dropped — a corrupted header must abort the query, not skew which
/// pages the §V verdicts exclude.
fn discharge_pruned(page: &Page, d: &PageDecision, pruned: &mut (u64, u64)) -> Result<()> {
    if !d.checksum_obligation {
        return Err(Error::Plan(format!(
            "pruned page {} lacks its checksum-verification obligation",
            d.index
        )));
    }
    verify_pruned(page)?;
    pruned.0 += 1;
    pruned.1 += u64::from(page.header.count);
    Ok(())
}

/// Drops a segment pruned whole: in one count once its all-verified mark
/// is set, else page by page as above, after which the mark is.
fn discharge_segment(seg: &Segment, ds: &[PageDecision], pruned: &mut (u64, u64)) -> Result<()> {
    if seg.is_verified() {
        pruned.0 += seg.len() as u64;
        pruned.1 += seg.tuples();
        return Ok(());
    }
    for (page, d) in seg.pages().iter().zip(ds) {
        discharge_pruned(page, d, pruned)?;
    }
    seg.mark_verified();
    Ok(())
}

/// Materializes a pipeline's kept pages, discharging its pruned ones.
fn kept_of(p: &SeriesPipeline, stats: &ExecStats) -> Result<Vec<Arc<Page>>> {
    let (mut kept, mut pruned) = (Vec::new(), (0, 0));
    for (page, d) in p.pages().zip(&p.decisions) {
        if d.verdict.kept() {
            kept.push(Arc::clone(page));
        } else {
            discharge_pruned(page, d, &mut pruned)?;
        }
    }
    charge_pruned(stats, pruned);
    Ok(kept)
}

/// Runs one aggregation pipeline: the calling thread discharges the
/// pruned pages and serves the memoized pages and segments, the pool runs
/// the remaining pages as segment morsels, and the sequential merge node
/// stitches everything in kept-page time order.
fn aggregate_pipeline(
    store: &SeriesStore,
    pipeline: &SeriesPipeline,
    window: Option<SlidingWindow>,
    func: AggFunc,
    cfg: &PipelineConfig,
    stats: &ExecStats,
    ctl: &CancellationToken,
) -> Result<WindowStates> {
    let pred = &pipeline.pred;
    let digest = func.needs_digest();
    let sealed: usize = pipeline.segments.iter().map(|s| s.len()).sum();
    let mut jobs: Vec<PageJob> = Vec::new();
    // Morsels by their first job, with their digest group (a quantile's
    // leaves in the tree; an exact aggregate's merge in order).
    let mut morsels: Vec<(usize, usize)> = Vec::new();
    // Memoized pages and segments served here, in runs: run `(j, states)`
    // precedes job `j` (or follows them all), which opens a morsel. A
    // quantile's served digest is a whole group, merged into its bucket
    // alone: a run of its own.
    let mut runs: Vec<(usize, WindowStates)> = Vec::new();
    let mut serve = |j: usize, k: usize, state: PartialState| match runs.last_mut() {
        Some((at, run)) if *at == j && !digest => merge_states(run, &[(k, state)]),
        _ => runs.push((j, vec![(k, state)])),
    };
    // Cacheable segments this query descends into, by first page index:
    // they publish what their pages' folds computed.
    let mut settle: Vec<(usize, &Segment)> = Vec::new();
    let (mut hits, mut missed, mut bytes, mut tuples, mut pruned) = (0, 0, 0, 0, (0, 0));
    let io = Stage::Io.timer(stats);
    // Pruned pages are discharged here, before any job runs: on a
    // resident page the checksum obligation is a load of its verified
    // mark, and a first touch hashes it once (sharing these out among
    // the jobs read no faster; EXPERIMENTS.md "Fold-only pages"). A
    // `[cacheable]` page whose memo answers `func` costs a page read
    // and a few loads here, under the loop's one timer, and no job; a
    // cacheable segment whose memo answers it costs the same, once.
    let mut end = 0;
    for (seg, sd, ds) in pipeline.segment_parts() {
        let at = end;
        end += seg.len();
        if let SegmentVerdict::Pruned(_) = sd.verdict {
            discharge_segment(seg, ds, &mut pruned)?;
            continue;
        }
        // A segment's digest is its group's only when the segment is
        // that whole group in this snapshot.
        let group = at % SEGMENT_PAGES == 0 && end == (at + SEGMENT_PAGES).min(sealed);
        if sd.cacheable && (group || !digest) {
            if let Some((k, state)) = memoized_segment(seg, func, window) {
                hits += seg.len() as u64;
                bytes += seg.encoded_len();
                tuples += seg.tuples();
                serve(jobs.len(), k, state);
                continue;
            }
            settle.push((at, seg));
        }
        // Whether the next job opens a morsel: a segment's first does,
        // and so does the first after a served page.
        let mut fresh = true;
        for (i, (page, d)) in seg.pages().iter().zip(ds).enumerate() {
            let Some(strategy) = d.strategy else {
                discharge_pruned(page, d, &mut pruned)?;
                continue;
            };
            match d.cacheable.then(|| memoized(page, func, window)).flatten() {
                Some((k, state)) => {
                    hits += 1;
                    bytes += page.encoded_len() as u64;
                    tuples += u64::from(page.header.count);
                    serve(jobs.len(), k, state);
                    fresh = true;
                }
                None => {
                    missed += u64::from(d.cacheable);
                    let g = (at + i) / SEGMENT_PAGES;
                    if fresh || morsels.last().is_some_and(|m| m.1 != g) {
                        morsels.push((jobs.len(), g));
                        fresh = false;
                    }
                    jobs.push((page, strategy, d.cacheable));
                }
            }
        }
    }
    charge_pruned(stats, pruned);
    store.io().record_pages(hits, bytes);
    stats.pages_loaded.fetch_add(hits, Ordering::Relaxed);
    stats.tuples_scanned.fetch_add(tuples, Ordering::Relaxed);
    drop(io);
    stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
    stats.cache_misses.fetch_add(missed, Ordering::Relaxed);

    // Fewer runs than threads over more pages than threads: cut evenly.
    let n = jobs.len();
    let cap = match morsels.len() < cfg.threads && n > cfg.threads {
        true => n.div_ceil(cfg.threads),
        false => n,
    };
    let ends = morsels.iter().skip(1).map(|m| m.0).chain([n]);
    let morsels: Vec<(Range<usize>, usize)> = (morsels.iter().zip(ends))
        .flat_map(|(&(s, g), e)| (s..e).step_by(cap).map(move |a| (a..e.min(a + cap), g)))
        .collect();
    // Outputs return in morsel order, and a morsel stops at its first
    // failing page, so which failing page decides the error is the same
    // at any thread count. A query whose every kept page was served
    // above dispatches nothing.
    let outputs = run_jobs(
        morsels.iter().map(|(r, _)| &jobs[r.clone()]).collect(),
        cfg.threads,
        stats,
        ctl,
        |pages| agg_morsel(pages, pipeline, window, func, cfg, stats, store, ctl),
    )?;

    // Merge node (sequential, timed): served partials and job outputs in
    // kept-page time order, so each per-window merge chain is itself
    // time-ordered — the PartialState::merge contract that keeps
    // FIRST/LAST and timestamp bounds exact — and a quantile's digests
    // merge in the fixed tree, the same across thread counts.
    let mut windows = WindowStates::new();
    {
        let _m = Stage::Merge.timer(stats);
        // The digest tree's open group: its index and its bucket states.
        let mut open: Option<(usize, WindowStates)> = None;
        // A morsel's partials of group `g` go into that group, closing
        // the one before; anything else (`None`: a served run, a morsel
        // of an exact aggregate) straight into the buckets. Closing compresses
        // each of the group's digests once and merges them into their
        // buckets; a segment the query folded that is this whole group,
        // in one bucket, keeps the digest.
        let mut push = |g: Option<usize>, states: &[(usize, PartialState)]| {
            if let Some((h, mut group)) = open.take_if(|o| Some(o.0) != g) {
                let digests = group.iter_mut().filter_map(|(_, s)| s.digest.as_mut());
                digests.for_each(TDigest::compress);
                let settled = settle.binary_search_by_key(&(h * SEGMENT_PAGES), |s| s.0);
                if let (Ok(i), [(_, state)]) = (settled, group.as_slice()) {
                    if let Some(d) = &state.digest {
                        settle[i].1.memoize_digest(d.into());
                    }
                }
                merge_states(&mut windows, &group);
            }
            match g {
                Some(g) => merge_states(&mut open.get_or_insert((g, Vec::new())).1, states),
                None => merge_states(&mut windows, states),
            }
        };
        let mut runs = runs.into_iter().peekable();
        for ((jobs, g), states) in morsels.iter().zip(outputs) {
            while let Some((_, run)) = runs.next_if(|(r, _)| *r <= jobs.start) {
                push(None, &run);
            }
            push(digest.then_some(*g), &states?);
        }
        runs.for_each(|(_, run)| push(None, &run));
        push(None, &[]);
    }
    // Every page of these is folded or served by now: each segment marks
    // itself verified and publishes the groups all its pages memoized (a
    // quantile's took its digest in the tree).
    settle.iter().for_each(|(_, seg)| seg.memoize());
    // The hot-chunk source folds last: its timestamps are strictly
    // greater than every sealed timestamp, so pushing after all page
    // partials keeps order-sensitive aggregates (FIRST/LAST, timestamp
    // bounds, sketches) correct.
    if let Some(hot) = &pipeline.hot {
        if hot.verdict.kept() {
            let (hts, hvals) = hot_rows(hot, pred, stats);
            let _a = Stage::Agg.timer(stats);
            // `hot_rows` already applied the predicate.
            let all = Predicate::default();
            fold_tuples(
                &hts,
                &hvals,
                &all,
                window,
                func,
                pipeline.float,
                &mut windows,
            );
        } else {
            charge_pruned_hot(hot, stats);
        }
    }
    Ok(windows)
}
