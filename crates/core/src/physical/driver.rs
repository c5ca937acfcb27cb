//! The pipeline driver: maps a compiled [`PhysicalPlan`]'s morsels onto
//! the work-stealing pool and stitches the partials back together —
//! per-page partial states through `MergeConcat`, §III-C slice
//! coefficients through the sequential prefix-sum chain, and binary
//! operators through their partitioned merge nodes.

use std::sync::Arc;

use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::exec::{run_jobs, ExecStats};
use crate::expr::{AggFunc, Predicate, SlidingWindow};
use crate::partial::PartialState;
use crate::physical::agg::{agg_page_job, fold_tuples, slice_coeff_job, SliceCoeff, WindowStates};
use crate::physical::merge::{
    binary_merge_partitioned, fused_pair_aggregate, merge_join_moments, BinaryKind,
};
use crate::physical::node::{Parallelism, RootNode, SeriesPipeline, Strategy};
use crate::physical::pipe::PhysicalPlan;
use crate::physical::scan::{
    charge_pruned_hot, charge_pruned_page, hot_rows, scan_rows, verify_pruned,
};
use crate::plan::{finalize, finalize_pair, PipelineConfig, Value};
use crate::slice::{distribute, WorkItem};
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
            let (mut ts, mut vals) =
                scan_rows(store, kept_of(p, stats)?, &p.pred, cfg, stats, ctl)?;
            // Hot rows append after all sealed rows: their timestamps are
            // strictly greater than every sealed one, so time order holds.
            if let Some(hot) = &p.hot {
                if hot.verdict.kept() {
                    let (ht, hv) = hot_rows(hot, &p.pred, stats);
                    ts.extend(ht);
                    vals.extend(hv);
                } else {
                    charge_pruned_hot(hot, stats);
                }
            }
            let rows = ts
                .into_iter()
                .zip(vals)
                .map(|(t, v)| vec![Value::Int(t), Value::Int(v)])
                .collect();
            Ok((vec!["time".into(), p.series.clone()], rows))
        }
        RootNode::Union { partitions } => {
            let (l, r) = (&phys.pipelines[0], &phys.pipelines[1]);
            let rows = binary_merge_partitioned(
                store,
                &l.pages,
                &l.pred,
                &r.pages,
                &r.pred,
                partitions,
                BinaryKind::Union,
                cfg,
                stats,
                ctl,
            )?;
            Ok((vec!["time".into(), "value".into()], rows))
        }
        RootNode::Join { partitions, op, on } => {
            let (l, r) = (&phys.pipelines[0], &phys.pipelines[1]);
            let rows = binary_merge_partitioned(
                store,
                &l.pages,
                &l.pred,
                &r.pages,
                &r.pred,
                partitions,
                BinaryKind::Join { op: *op, on: *on },
                cfg,
                stats,
                ctl,
            )?;
            let columns = match op {
                Some(_) => vec!["time".into(), format!("{}.A op {}.A", l.series, r.series)],
                None => vec!["time".into(), l.series.clone(), r.series.clone()],
            };
            Ok((columns, rows))
        }
        RootNode::PairAgg { func, fused } => {
            let (l, r) = (&phys.pipelines[0], &phys.pipelines[1]);
            let col = format!("{}({}, {})", func.name(), l.series, r.series);
            let moments = if *fused {
                // §IV fused fast path: page-aligned Delta-RLE value
                // columns with identical clocks aggregate straight from
                // (Δ, run) pairs — no flattening, no join materialization.
                fused_pair_aggregate(store, &l.pages, &r.pages, stats, ctl)?
            } else {
                let (lt, lv) = scan_rows(store, kept_of(l, stats)?, &l.pred, cfg, stats, ctl)?;
                let (rt, rv) = scan_rows(store, kept_of(r, stats)?, &r.pred, cfg, stats, ctl)?;
                merge_join_moments(&lt, &lv, &rt, &rv, stats)
            };
            Ok((vec![col], vec![vec![finalize_pair(*func, moments)]]))
        }
    }
}

/// The driver-side half of the §V verify-before-prune discipline: a
/// pruned page may only be dropped when its decision carries the
/// checksum-verification obligation the compiler recorded. A decision
/// without it means the plan was tampered with or a planner bug slipped
/// past the verifier — refuse to execute rather than silently skip data.
fn require_obligation(d: &crate::physical::node::PageDecision) -> Result<()> {
    if d.checksum_obligation {
        Ok(())
    } else {
        Err(Error::Plan(format!(
            "pruned page {} lacks its checksum-verification obligation",
            d.index
        )))
    }
}

/// Drops one pruned page: obligation, checksum, then the §VII-B charge.
/// Pruned pages are checksum-verified (once per resident page object)
/// before being dropped — a corrupted header must abort the query, not
/// skew which pages the §V verdicts exclude.
fn discharge_pruned(
    page: &etsqp_storage::page::Page,
    d: &crate::physical::node::PageDecision,
    stats: &ExecStats,
) -> Result<()> {
    require_obligation(d)?;
    verify_pruned(page)?;
    charge_pruned_page(page, stats);
    Ok(())
}

/// Materializes a pipeline's kept pages, discharging its pruned ones.
fn kept_of(p: &SeriesPipeline, stats: &ExecStats) -> Result<Vec<Arc<etsqp_storage::page::Page>>> {
    for (page, d) in p.pages.iter().zip(&p.decisions) {
        if !d.verdict.kept() {
            discharge_pruned(page, d, stats)?;
        }
    }
    Ok(p.kept().map(|(page, _)| Arc::clone(page)).collect())
}

/// Runs one aggregation pipeline: job generation per the planner's
/// [`Parallelism`], scheduler dispatch, and the sequential merge node
/// (including the §III-C prefix-sum stitch across slices).
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
    let mut kept: Vec<Arc<etsqp_storage::page::Page>> = Vec::new();
    let mut decided: Vec<(Strategy, bool)> = Vec::new();
    // Pruned pages are discharged here, before any job runs: on a resident
    // page the checksum obligation is a load of its verified mark, and a
    // first touch hashes it once (sharing these out among the jobs read
    // no faster; EXPERIMENTS.md "Fold-only pages").
    for (page, d) in pipeline.pages.iter().zip(&pipeline.decisions) {
        match d.strategy {
            Some(s) => {
                kept.push(Arc::clone(page));
                decided.push((s, d.cacheable));
            }
            None => discharge_pruned(page, d, stats)?,
        }
    }

    let items = match pipeline.parallelism {
        Parallelism::Sliced { .. } => distribute(&kept, cfg.threads),
        Parallelism::PerPage { .. } => kept.iter().cloned().map(WorkItem::Page).collect(),
    };

    #[derive(Debug)]
    enum JobOut {
        Whole(WindowStates),
        Slice {
            page_seq: usize,
            part: usize,
            coeff: SliceCoeff,
        },
    }

    // Tag items with a page sequence: it orders the slice prefix chain
    // and indexes the planner's per-page strategy (items preserve kept
    // order, so it equals the kept-page index).
    let mut tagged = Vec::with_capacity(items.len());
    let mut seq = usize::MAX;
    let mut last_ptr: *const etsqp_storage::page::Page = std::ptr::null();
    for item in items {
        let ptr = Arc::as_ptr(item.page());
        if ptr != last_ptr {
            seq = seq.wrapping_add(1);
            last_ptr = ptr;
        }
        tagged.push((seq, item));
    }

    // Outputs return in job order, so which failing page decides the
    // error is the same at any thread count.
    let outputs = run_jobs(
        tagged,
        cfg.threads,
        stats,
        ctl,
        |(page_seq, item)| -> Result<JobOut> {
            Ok(match item {
                WorkItem::Page(page) => {
                    let (strategy, cacheable) = decided[page_seq];
                    JobOut::Whole(agg_page_job(
                        &page, pred, window, func, strategy, cacheable, cfg, stats, store,
                    )?)
                }
                WorkItem::Slice { page, part, parts } => JobOut::Slice {
                    page_seq,
                    part,
                    coeff: slice_coeff_job(&page, part, parts, stats, store)?,
                },
            })
        },
    )?;

    let mut windows: std::collections::BTreeMap<usize, PartialState> =
        std::collections::BTreeMap::new();
    {
        // Merge node (sequential, timed). Job outputs arrive in kept-page
        // time order, so each per-window merge chain is itself
        // time-ordered — the PartialState::merge contract that keeps
        // FIRST/LAST, timestamp bounds and digest merges deterministic
        // across thread counts.
        let _m = crate::physical::node::Stage::Merge.timer(stats);
        let mut v_pre: i128 = 0;
        let mut cur_page = usize::MAX;
        for out in outputs {
            match out? {
                JobOut::Whole(states) => {
                    for (k, s) in states {
                        windows.entry(k).or_default().merge(&s);
                    }
                }
                JobOut::Slice {
                    page_seq,
                    part,
                    coeff,
                } => {
                    if page_seq != cur_page {
                        cur_page = page_seq;
                        debug_assert_eq!(part, 0, "slices arrive in order");
                        v_pre = coeff.first_value as i128;
                    }
                    // Slices only exist for non-partial-only aggregates;
                    // the coefficients resolve into the exact moments.
                    let state = windows.entry(0).or_default();
                    coeff.fold_into(&mut state.agg, v_pre);
                    v_pre += coeff.delta_total as i128;
                }
            }
        }
    }
    // The hot-chunk source folds last: its timestamps are strictly
    // greater than every sealed timestamp, so pushing after all page
    // partials keeps order-sensitive aggregates (FIRST/LAST, timestamp
    // bounds, sketches) correct.
    if let Some(hot) = &pipeline.hot {
        if hot.verdict.kept() {
            let (hts, hvals) = hot_rows(hot, pred, stats);
            let _a = crate::physical::node::Stage::Agg.timer(stats);
            // `hot_rows` already applied the predicate.
            let all = Predicate::default();
            fold_tuples(&hts, &hvals, &all, window, func, &mut windows);
        } else {
            charge_pruned_hot(hot, stats);
        }
    }
    Ok(windows.into_iter().collect())
}
