//! The Algorithm 2 `Pipe` generator: compiles a logical [`Plan`] plus
//! per-page encoding statistics into an explicit pipeline DAG
//! ([`PhysicalPlan`]), making every prune decision *data* instead of
//! control flow buried in the executor: the executor discharges exactly
//! the pages the plan prunes, on unary and binary roots alike. A kept page
//! has one strategy, [`Strategy::Decode`] (`Strategy::Serial` on the
//! byte-serial engine): the executor answers it from header plus memo,
//! else by one cursor fold, else by decoding (see
//! [`crate::physical::agg`]).
//!
//! The same compiled plan drives both execution
//! ([`crate::physical::driver::run`]) and `EXPLAIN`
//! ([`PhysicalPlan::render`]) — what the snapshot tests pin is by
//! construction what the executor does.
//!
//! Verdicts are taken a segment at a time ([`segment_verdict`]): a
//! segment pruned or covered whole fills its pages' decisions in one
//! `extend`, and only a mixed segment's pages get verdicts of their own
//! ([`page_verdict`] and [`Predicate::residual`] of each page header).
//!
//! Past its §V verdict, a kept page is planned from its residual
//! ([`Predicate::residual`]): the conjuncts its header
//! does not prove. A page the value filter covers therefore takes the
//! `[cacheable]` marking and `EXPLAIN` chain of an unfiltered page, and
//! the executor folds it under the same residual.

use std::fmt::Write as _;
use std::sync::Arc;

use etsqp_storage::segment::Segment;
use etsqp_storage::store::SeriesStore;

use crate::expr::{AggFunc, BinOp, CmpOp, Plan, Predicate, SlidingWindow, TimeRange};
use crate::physical::merge::merge_partitions;
use crate::physical::node::{
    HotScan, Node, PageDecision, PruneVerdict, RootNode, SegmentDecision, SegmentVerdict,
    SeriesPipeline, Strategy,
};
use crate::physical::scan::{hot_verdict, page_verdict, segment_verdict};
use crate::physical::window::whole_page_bucket;
use crate::plan::{flatten_scan, PipelineConfig};
use crate::{Error, Result};

/// A compiled physical pipeline DAG: per-series pipelines feeding the
/// root merge node (Figure 9).
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The root merge node combining the per-series partials.
    pub root: RootNode,
    /// One pipeline per scanned series (left before right for binary
    /// operators).
    pub pipelines: Vec<SeriesPipeline>,
}

/// What the pages of a pipeline feed — decides whether a page may be
/// `[cacheable]`.
enum Role {
    /// Partial aggregation (`PartialAgg` pipelines).
    Agg { window: Option<SlidingWindow> },
    /// Row production (scans and binary-operator sides).
    Rows,
}

/// Captures a series' atomic `(sealed segments, hot snapshot)` pair and
/// compiles the hot half into the [`HotScan`] source of a pipeline,
/// including its §V verdict over the snapshot's exact statistics; the
/// third field is the series-kind bit (a float series: its first page's
/// value codec, or its hot chunk's). A float hot chunk already buffers
/// ordered keys, the form its pages decode to and its min/max are kept
/// in, so its `Arc` columns become the scan as they are and it prunes,
/// filters and folds like an integer one.
pub(crate) fn snapshot_unary(
    store: &SeriesStore,
    series: &str,
    pred: &Predicate,
    prune: bool,
) -> Result<(Vec<Arc<Segment>>, Option<HotScan>, bool)> {
    let snap = store.snapshot(series).map_err(Error::Storage)?;
    // A series' pages share its value codec.
    let mut float = snap
        .pages()
        .next()
        .is_some_and(|p| p.header.val_encoding.is_float());
    let hot = snap.hot.map(|h| {
        float |= h.val_encoding.is_float();
        HotScan {
            verdict: hot_verdict(&h.ts, h.min_value, h.max_value, pred, prune),
            ts: h.ts,
            vals: h.vals,
        }
    });
    Ok((snap.segments, hot, float))
}

/// Compiles one side of a binary operator exactly like a `SELECT *`
/// scan: its pages and hot chunk get their own §V verdicts. A float side
/// is a plan error: the merges pair, compare and combine integer values.
fn binary_side(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<SeriesPipeline> {
    let (series, pred) = flatten_scan(plan)?;
    let (segments, hot, float) = snapshot_unary(store, &series, &pred, cfg.prune)?;
    if float {
        return Err(Error::Plan(format!(
            "{series} is a float series: binary operators take integer series"
        )));
    }
    Ok(build_pipeline(
        series,
        pred,
        segments,
        hot,
        false,
        Role::Rows,
        cfg,
    ))
}

/// Algorithm 2 `Pipe`: compiles the logical plan against the store's
/// page headers under `cfg` into an explicit [`PhysicalPlan`].
///
/// Debug builds run the `etsqp-verify` invariant catalog
/// ([`crate::physical::verify`]) over every compiled plan — including an
/// `EXPLAIN` round-trip — before handing it to the executor, so a
/// planner regression aborts at compile time instead of silently
/// mis-executing. Release builds skip the pass; `cargo run -p xtask --
/// verify-plans` covers the full plan space there. What a *query* can
/// get wrong — a window whose bucket arithmetic would overflow — is
/// refused with [`Error::Plan`] in every profile, before the verifier
/// could object.
pub fn compile(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<PhysicalPlan> {
    let compiled = compile_inner(plan, store, cfg)?;
    #[cfg(debug_assertions)]
    {
        use crate::physical::verify;
        verify::verify(&compiled, cfg).map_err(Error::Verify)?;
        let rendered = compiled.render(cfg);
        verify::verify_explain(&compiled, cfg, &rendered).map_err(Error::Verify)?;
    }
    Ok(compiled)
}

fn compile_inner(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<PhysicalPlan> {
    match plan {
        Plan::Aggregate { input, func } => aggregate_plan(input, *func, None, store, cfg),
        Plan::WindowAggregate {
            input,
            window,
            func,
        } => aggregate_plan(input, *func, Some(*window), store, cfg),
        Plan::Scan { .. } | Plan::Filter { .. } => {
            let (series, pred) = flatten_scan(plan)?;
            let (segments, hot, float) = snapshot_unary(store, &series, &pred, cfg.prune)?;
            let pipeline = build_pipeline(series, pred, segments, hot, float, Role::Rows, cfg);
            Ok(PhysicalPlan {
                root: RootNode::Rows,
                pipelines: vec![pipeline],
            })
        }
        Plan::Union { left, right } => {
            let (lpipe, rpipe, partitions) = binary_sides(left, right, store, cfg)?;
            Ok(PhysicalPlan {
                root: RootNode::Union { partitions },
                pipelines: vec![lpipe, rpipe],
            })
        }
        Plan::Join { left, right, on } => join_plan(left, right, None, *on, store, cfg),
        Plan::JoinExpr { left, right, op } => join_plan(left, right, Some(*op), None, store, cfg),
        Plan::JoinAggregate { left, right, func } => Ok(PhysicalPlan {
            root: RootNode::PairAgg { func: *func },
            pipelines: vec![
                binary_side(left, store, cfg)?,
                binary_side(right, store, cfg)?,
            ],
        }),
    }
}

/// An aggregate over one (filtered) series; a whole-range aggregate is
/// the `window = None` case. The one place a window is admitted: bucket
/// arithmetic in the executor is unchecked, so a window the series' time
/// span cannot be bucketed under without `i64` overflow is refused here,
/// in every build profile (the verifier's bucket-tiling invariant is
/// the second line of defence, in debug builds).
fn aggregate_plan(
    input: &Plan,
    func: AggFunc,
    window: Option<SlidingWindow>,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<PhysicalPlan> {
    let (series, pred) = flatten_scan(input)?;
    let (segments, hot, float) = snapshot_unary(store, &series, &pred, cfg.prune)?;
    // Hot timestamps follow every sealed one; an empty series still
    // refuses a non-positive width.
    let last_ts = match &hot {
        Some(h) => h.ts.last().copied(),
        None => segments.last().map(|s| s.header().last_ts),
    }
    .unwrap_or(i64::MIN);
    if let Some(w) = window.filter(|w| !w.can_bucket(last_ts)) {
        return Err(Error::Plan(format!(
            "window (t_min={}, dt={}) cannot bucket {series} up to its last timestamp \
             {last_ts} without i64 overflow",
            w.t_min, w.dt
        )));
    }
    let role = Role::Agg { window };
    let pipeline = build_pipeline(series, pred, segments, hot, float, role, cfg);
    Ok(PhysicalPlan {
        root: RootNode::Aggregate { func, window },
        pipelines: vec![pipeline],
    })
}

/// A natural join emitting rows: `(t, a, b)` filtered by `on`, or
/// `(t, op(a, b))`.
fn join_plan(
    left: &Plan,
    right: &Plan,
    op: Option<BinOp>,
    on: Option<CmpOp>,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<PhysicalPlan> {
    let (lpipe, rpipe, partitions) = binary_sides(left, right, store, cfg)?;
    Ok(PhysicalPlan {
        root: RootNode::Join { partitions, op, on },
        pipelines: vec![lpipe, rpipe],
    })
}

/// Compiles both sides of a binary operator and the time-range
/// partitions its merge node runs over, cut at the sides' sealed pages
/// (a hot tail falls in the last partition its timestamps reach).
fn binary_sides(
    left: &Plan,
    right: &Plan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
) -> Result<(SeriesPipeline, SeriesPipeline, Vec<TimeRange>)> {
    let lpipe = binary_side(left, store, cfg)?;
    let rpipe = binary_side(right, store, cfg)?;
    let partitions = merge_partitions(lpipe.pages().chain(rpipe.pages()), cfg.threads);
    Ok((lpipe, rpipe, partitions))
}

/// Builds one per-series pipeline: §V verdict per segment, then per page
/// of a mixed segment, and the one strategy of the engine for every kept
/// page. A page's decision is the one its own header gives.
fn build_pipeline(
    series: String,
    pred: Predicate,
    segments: Vec<Arc<Segment>>,
    hot: Option<HotScan>,
    float: bool,
    role: Role,
    cfg: &PipelineConfig,
) -> SeriesPipeline {
    let kept_strategy = if cfg.vectorized {
        Strategy::Decode
    } else {
        Strategy::Serial
    };
    // What a page also needs to be `[cacheable]`, beyond being kept with
    // a trivial residual: an aggregate with the cache on, a non-float
    // series, and (windowed) one bucket. A float series' page never is:
    // its memo words would be integer Σ of keys.
    let window = match role {
        Role::Agg { window } if cfg.partial_cache && !float => Some(window),
        _ => None,
    };
    let mut decisions = Vec::with_capacity(segments.iter().map(|s| s.len()).sum());
    let mut segment_decisions = Vec::with_capacity(segments.len());
    for seg in &segments {
        let verdict = segment_verdict(seg.header(), &pred, cfg.prune);
        let whole = window.is_some_and(|w| whole_page_bucket(seg.header(), w).is_some());
        let at = decisions.len();
        // Page `i`'s decision from its verdict and whether its header
        // proves it whole; such a page is `[cacheable]` when it lies in
        // one bucket, as every page of a segment that does. A uniform
        // segment's pages are not loaded: the counts are the segment's.
        let decide = |i: usize, verdict: PruneVerdict, proven: bool| {
            let bucket = |w| whole || whole_page_bucket(&seg.pages()[i].header, w).is_some();
            PageDecision {
                index: at + i,
                tuples: u64::from(seg.counts()[i]),
                verdict,
                strategy: verdict.kept().then_some(kept_strategy),
                // Pruning trusts header min/max without decoding, so every
                // pruned page carries the obligation to checksum-verify
                // before it is dropped (§V verify-before-prune).
                checksum_obligation: !verdict.kept(),
                cacheable: verdict.kept() && proven && window.is_some_and(bucket),
            }
        };
        let pages = 0..seg.len();
        // A uniform segment's verdict is every page's: one `extend`.
        match verdict {
            SegmentVerdict::Pruned(v) => decisions.extend(pages.map(|i| decide(i, v, false))),
            SegmentVerdict::Covered => {
                decisions.extend(pages.map(|i| decide(i, PruneVerdict::Kept, true)))
            }
            SegmentVerdict::Mixed => {
                decisions.extend(seg.pages().iter().enumerate().map(|(i, p)| {
                    let verdict = page_verdict(&p.header, &pred, cfg.prune);
                    decide(i, verdict, pred.residual(&p.header, cfg.prune).is_trivial())
                }))
            }
        }
        segment_decisions.push(SegmentDecision {
            verdict,
            cacheable: verdict == SegmentVerdict::Covered && whole,
        });
    }
    SeriesPipeline {
        series,
        pred,
        segments,
        segment_decisions,
        decisions,
        hot,
        float,
    }
}

/// Compiles and renders in one step — the engine's `EXPLAIN` entry point.
pub fn explain(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<String> {
    Ok(compile(plan, store, cfg)?.render(cfg))
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}

fn fmt_bound(t: i64) -> String {
    match t {
        i64::MIN => "-inf".into(),
        i64::MAX => "+inf".into(),
        other => other.to_string(),
    }
}

fn fmt_range(r: &TimeRange) -> String {
    format!("[{}, {}]", fmt_bound(r.lo), fmt_bound(r.hi))
}

fn fmt_pred(pred: &Predicate) -> String {
    let mut parts = Vec::new();
    if let Some(t) = pred.time {
        parts.push(format!("time in {}", fmt_range(&t)));
    }
    if let Some((lo, hi)) = pred.value {
        parts.push(format!("value in [{lo}, {hi}]"));
    }
    if parts.is_empty() {
        "none".into()
    } else {
        parts.join(" and ")
    }
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "=",
    }
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
    }
}

/// The operator chain a page group runs through, built from [`Node`]
/// renderings so `EXPLAIN` and the node catalogue cannot drift apart.
fn chain(strategy: Strategy, pred: &Predicate, role_func: Option<AggFunc>) -> String {
    let filter = Node::Filter {
        time: pred.time.is_some(),
        value: pred.value.is_some(),
    };
    let mut nodes = vec![
        Node::SourcePages,
        Node::DecodeScan {
            serial: strategy == Strategy::Serial,
        },
        filter,
    ];
    if let Some(func) = role_func {
        nodes.push(Node::PartialAgg { func });
    }
    nodes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

impl PhysicalPlan {
    /// Renders the pipeline DAG as stable ASCII text (the `EXPLAIN`
    /// output): config header, root merge node, and per-series pipelines
    /// with page-group strategies and prune verdicts.
    pub fn render(&self, cfg: &PipelineConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "physical plan (threads={}, prune={}, vectorized={}, cache={})",
            cfg.threads,
            on_off(cfg.prune),
            on_off(cfg.vectorized),
            on_off(cfg.partial_cache),
        );
        let role_func = match &self.root {
            RootNode::Aggregate { func, window } => {
                match window {
                    Some(w) => {
                        let _ = writeln!(
                            out,
                            "WindowAggregate[{}, t_min={}, dt={}] <- {}",
                            func.name(),
                            w.t_min,
                            w.dt,
                            Node::MergeConcat
                        );
                    }
                    None => {
                        let _ =
                            writeln!(out, "Aggregate[{}] <- {}", func.name(), Node::MergeConcat);
                    }
                }
                Some(*func)
            }
            RootNode::Rows => {
                let _ = writeln!(out, "Rows <- {}", Node::MergeConcat);
                None
            }
            RootNode::Union { partitions } => {
                let _ = writeln!(
                    out,
                    "Union <- {} ({} partitions)",
                    Node::MergeUnion,
                    partitions.len()
                );
                render_partitions(&mut out, partitions);
                None
            }
            RootNode::Join { partitions, op, on } => {
                let mut extras = String::new();
                if let Some(op) = op {
                    let _ = write!(extras, ", expr: a {} b", binop_name(*op));
                }
                if let Some(on) = on {
                    let _ = write!(extras, ", on: a {} b", cmp_name(*on));
                }
                let _ = writeln!(
                    out,
                    "Join <- {} ({} partitions{extras})",
                    Node::MergeJoin,
                    partitions.len()
                );
                render_partitions(&mut out, partitions);
                None
            }
            RootNode::PairAgg { func } => {
                let _ = writeln!(
                    out,
                    "PairAgg[{}] <- {}[moments]",
                    func.name(),
                    Node::MergeJoin
                );
                None
            }
        };
        for p in &self.pipelines {
            let pages: Vec<_> = p.pages().collect();
            let kept_pages = p.decisions.iter().filter(|d| d.verdict.kept()).count();
            let total_tuples: u64 = p.decisions.iter().map(|d| d.tuples).sum();
            let encs = pages
                .first()
                .map(|pg| {
                    format!(
                        " [ts={}, val={}]",
                        pg.header.ts_encoding.name(),
                        pg.header.val_encoding.name()
                    )
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  pipeline {}: {} pages ({} kept), {} tuples{}",
                p.series,
                pages.len(),
                kept_pages,
                total_tuples,
                encs
            );
            let _ = writeln!(out, "    pred: {}", fmt_pred(&p.pred));
            // A kept page runs what its header leaves of the predicate.
            let residual = |i: usize| {
                let kept = p.decisions[i].strategy.is_some();
                kept.then(|| p.pred.residual(&pages[i].header, cfg.prune))
            };
            // Group consecutive pages with the same verdict + strategy +
            // residual.
            let mut i = 0;
            while i < p.decisions.len() {
                let d = &p.decisions[i];
                let r = residual(i);
                let mut j = i;
                while j + 1 < p.decisions.len()
                    && p.decisions[j + 1].verdict == d.verdict
                    && p.decisions[j + 1].strategy == d.strategy
                    && p.decisions[j + 1].cacheable == d.cacheable
                    && residual(j + 1) == r
                {
                    j += 1;
                }
                let span = if i == j {
                    format!("page {i}")
                } else {
                    format!("pages {i}-{j}")
                };
                // Static cache *eligibility* only — never live hit/miss
                // counts, which would break the EXPLAIN purity check
                // (`verify_explain` re-renders byte-identically).
                let cache_tag = if d.cacheable { " [cacheable]" } else { "" };
                match d.strategy.zip(r.as_ref()) {
                    Some((s, r)) => {
                        let _ = writeln!(
                            out,
                            "    {span}: {} -> {}{cache_tag}",
                            d.verdict,
                            chain(s, r, role_func)
                        );
                    }
                    None => {
                        let _ = writeln!(out, "    {span}: {}", d.verdict);
                    }
                }
                i = j + 1;
            }
            // The hot-chunk source renders last: the executor folds it
            // after every sealed-page partial (its timestamps follow all
            // sealed ones). Absent when nothing is buffered, so plans
            // over flushed stores render exactly as before.
            if let Some(hot) = &p.hot {
                if hot.verdict.kept() {
                    let _ = writeln!(
                        out,
                        "    hot ({} tuples): {} -> {}",
                        hot.ts.len(),
                        hot.verdict,
                        hot_chain(&p.pred, role_func)
                    );
                } else {
                    let _ = writeln!(out, "    hot ({} tuples): {}", hot.ts.len(), hot.verdict);
                }
            }
        }
        out
    }
}

/// The operator chain a kept hot snapshot runs through: its columns are
/// already decoded, so the chain is source → filter (→ partial agg).
fn hot_chain(pred: &Predicate, role_func: Option<AggFunc>) -> String {
    let mut nodes: Vec<Node> = vec![
        Node::SourceHot,
        Node::Filter {
            time: pred.time.is_some(),
            value: pred.value.is_some(),
        },
    ];
    if let Some(func) = role_func {
        nodes.push(Node::PartialAgg { func });
    }
    nodes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn render_partitions(out: &mut String, partitions: &[TimeRange]) {
    for (i, r) in partitions.iter().enumerate() {
        let _ = writeln!(out, "  partition {i}: {}", fmt_range(r));
    }
}
