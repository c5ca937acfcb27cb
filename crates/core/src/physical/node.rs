//! Typed physical-pipeline nodes (the vertices of the Algorithm 2 DAG).
//!
//! Every planner decision the executor acts on is a value of one of these
//! types: a [`SegmentDecision`] per segment and a [`PruneVerdict`] per
//! page (§V), a [`Strategy`] per kept page
//! (vectorized or byte-serial), and a [`RootNode`] naming the merge that
//! stitches the partials (Figure 9). Each kept page the header and memo
//! do not answer is one job. [`Node`] renders the operator chain a page
//! group runs through; [`Stage`] names the Fig. 14(b) timers of
//! [`ExecStats`] that operator bodies charge.

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use etsqp_storage::page::Page;
use etsqp_storage::segment::Segment;

use crate::exec::{ExecStats, ScopedTimer};
use crate::expr::{AggFunc, BinOp, CmpOp, PairAggFunc, Predicate, SlidingWindow, TimeRange};

/// Execution stage a pipeline node charges its time to — one per stage
/// counter of [`ExecStats`] (the Fig. 14(b) breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Page distribution / touching encoded bytes (`io_ns`).
    Io,
    /// Bit-unpacking (`unpack_ns`).
    Unpack,
    /// Delta accumulation / RLE flattening (`delta_ns`).
    Delta,
    /// Mask generation and position resolution (`filter_ns`).
    Filter,
    /// Aggregation — fused or over decoded vectors (`agg_ns`).
    Agg,
    /// Sequential merge nodes (`merge_ns`).
    Merge,
}

impl Stage {
    /// The [`ExecStats`] counter this stage feeds.
    pub fn counter(self, stats: &ExecStats) -> &AtomicU64 {
        match self {
            Stage::Io => &stats.io_ns,
            Stage::Unpack => &stats.unpack_ns,
            Stage::Delta => &stats.delta_ns,
            Stage::Filter => &stats.filter_ns,
            Stage::Agg => &stats.agg_ns,
            Stage::Merge => &stats.merge_ns,
        }
    }

    /// Starts a drop-guard timer charging this stage's counter.
    pub fn timer(self, stats: &ExecStats) -> ScopedTimer<'_> {
        ScopedTimer::new(self.counter(stats))
    }
}

/// §V header-pruning verdict for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneVerdict {
    /// The page may contain qualifying tuples and enters the pipeline.
    Kept,
    /// Pruned: the header time range cannot overlap the time filter.
    PrunedTime,
    /// Pruned: the header value bounds cannot overlap the value filter.
    PrunedValue,
}

impl PruneVerdict {
    /// Whether the page survives pruning.
    pub fn kept(self) -> bool {
        matches!(self, PruneVerdict::Kept)
    }
}

impl fmt::Display for PruneVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneVerdict::Kept => write!(f, "kept"),
            PruneVerdict::PrunedTime => write!(f, "pruned(time)"),
            PruneVerdict::PrunedValue => write!(f, "pruned(value)"),
        }
    }
}

/// §V verdict over a segment's union header, taken before any page's:
/// when it follows from the union it holds for every page, and only a
/// mixed segment's pages get verdicts of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentVerdict {
    /// Every page is pruned, all with this verdict.
    Pruned(PruneVerdict),
    /// Every page is kept, and the union proves every conjunct: every
    /// tuple qualifies.
    Covered,
    /// Per-page verdicts.
    Mixed,
}

/// The planner's decision for one segment of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDecision {
    /// The verdict over the union header.
    pub verdict: SegmentVerdict,
    /// Whether the whole segment's partial state may be served from its
    /// header and memo (a quantile's from its digest slot, when the
    /// segment is one merge group), and memoized: covered, every page
    /// [`PageDecision::cacheable`], and (under a window) the union inside
    /// one bucket. Verify-before-prune, one level up: the driver prunes
    /// or answers a segment whole only once its all-verified mark is
    /// set, and else descends to its pages.
    pub cacheable: bool,
}

/// The strategy the planner picked for one kept page. Only
/// [`Strategy::Decode`] and [`Strategy::Serial`] are planned; the four
/// whole-page labels keep their names for callers that match on them,
/// and the verifier rejects each as no longer planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// No longer planned: a TS2DIFF page's §IV Delta fusion is the
    /// decode-and-fold cursor, which [`Strategy::Decode`] runs.
    FusedTs2Diff,
    /// No longer planned: the Delta–Repeat closed form is the cursor's
    /// run-space source, FIRST / LAST included.
    FusedDeltaRle,
    /// No longer planned, as [`Strategy::FusedTs2Diff`], for Stream VByte
    /// pages.
    FusedSvb,
    /// No longer planned: a covered page's MIN / MAX (and COUNT) come
    /// from its verified header on the driver's thread.
    HeaderMinMax,
    /// The one vectorized path: header plus memo, else the fold cursor,
    /// else Algorithm 1 decode (with §V suffix pruning under value
    /// filters) + masked SIMD aggregation.
    Decode,
    /// Byte-serial per-tuple baseline (the non-vectorized engine).
    Serial,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::FusedTs2Diff => write!(f, "fused(ts2diff)"),
            Strategy::FusedDeltaRle => write!(f, "fused(delta_rle)"),
            Strategy::FusedSvb => write!(f, "fused(svb)"),
            Strategy::HeaderMinMax => write!(f, "header(min/max)"),
            Strategy::Decode => write!(f, "decode"),
            Strategy::Serial => write!(f, "serial"),
        }
    }
}

/// The planner's verdict and strategy for one page of a series.
#[derive(Debug, Clone, Copy)]
pub struct PageDecision {
    /// Page index within the series (storage order).
    pub index: usize,
    /// Tuples the page covers (header count).
    pub tuples: u64,
    /// §V pruning verdict.
    pub verdict: PruneVerdict,
    /// Strategy for kept pages; `None` when pruned.
    pub strategy: Option<Strategy>,
    /// The §V verify-before-prune obligation: a pruned page's checksum
    /// must be verified before the page may be dropped (its header
    /// min/max were trusted without decoding). The compiler sets this on
    /// every pruned decision; the verifier and the driver both refuse to
    /// drop a page that lacks it.
    pub checksum_obligation: bool,
    /// Whether the page's whole-range partial state may be served from
    /// the page's memo, and memoized there (exact aggregates; no page
    /// keeps a quantile's digest, so such a page folds). The planner
    /// grants this only when the partial is a
    /// pure function of the page's content: the page is kept, its header
    /// proves every conjunct of the predicate (no residual conjunct: the
    /// time filter and any value filter cover the whole page), and
    /// (under a windowed aggregate) the page lies inside a single bucket.
    /// The executor's hit path still requires the page checksum verified
    /// — the cache-obligation invariant checked by
    /// [`crate::physical::verify`].
    pub cacheable: bool,
}

/// The hot-chunk scan source of a pipeline: a point-in-time copy of the
/// series' unsealed append buffer, captured atomically with the sealed
/// page list at plan-compile time via `SeriesStore::snapshot`, a float
/// buffer as its ordered keys. The columns are already decoded — the
/// executor filters and folds them
/// directly, after every sealed-page partial (hot timestamps are
/// strictly greater than all sealed ones, so first/last-sensitive
/// merges stay ordered).
#[derive(Debug, Clone)]
pub struct HotScan {
    /// Buffered timestamps (strictly increasing).
    pub ts: Arc<Vec<i64>>,
    /// Buffered values, aligned with `ts`.
    pub vals: Arc<Vec<i64>>,
    /// §V pruning verdict over the snapshot's exact min/max statistics.
    pub verdict: PruneVerdict,
}

/// One per-series pipeline: the segments it reads plus every planner
/// decision over them and their pages. This is the unit
/// [`crate::physical::driver`] maps onto the pool.
#[derive(Debug, Clone)]
pub struct SeriesPipeline {
    /// Series name.
    pub series: String,
    /// The conjunctive predicate pushed down to this scan.
    pub pred: Predicate,
    /// All sealed segments of the series, storage order (aligned with
    /// `segment_decisions`); their pages, in order, align with
    /// `decisions`.
    pub segments: Vec<Arc<Segment>>,
    /// Per-segment verdict, aligned with `segments`.
    pub segment_decisions: Vec<SegmentDecision>,
    /// Per-page verdict + strategy, aligned with [`SeriesPipeline::pages`].
    pub decisions: Vec<PageDecision>,
    /// The live hot-chunk snapshot, when the series had unsealed points
    /// at compile time.
    pub hot: Option<HotScan>,
    /// The series-kind bit, read once from the snapshot: a float series,
    /// whose value column every path reads as its ordered keys. Its
    /// states carry real-valued moments and its rows map back to `f64`.
    pub float: bool,
}

impl SeriesPipeline {
    /// Every sealed page, storage order.
    pub fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.segments.iter().flat_map(|s| s.pages())
    }

    /// Each segment with its decision and its pages' decisions (fewer,
    /// if the plan holds fewer page decisions than pages).
    pub fn segment_parts(
        &self,
    ) -> impl Iterator<Item = (&Arc<Segment>, &SegmentDecision, &[PageDecision])> {
        let mut rest = self.decisions.as_slice();
        self.segments
            .iter()
            .zip(&self.segment_decisions)
            .map(move |(seg, sd)| {
                let (ds, tail) = rest.split_at(seg.len().min(rest.len()));
                rest = tail;
                (seg, sd, ds)
            })
    }
}

/// The merge node at the root of the DAG — what combines the per-series
/// partials into the result relation (Figure 9).
#[derive(Debug, Clone)]
pub enum RootNode {
    /// Whole-input or windowed aggregation over one series; partial
    /// states concatenate in a `MergeConcat` keyed by window.
    Aggregate {
        /// Aggregation function.
        func: AggFunc,
        /// Sliding window, if any.
        window: Option<SlidingWindow>,
    },
    /// Row-producing scan of one series (`MergeConcat` of page outputs).
    Rows,
    /// Time-ordered union of two series over `MergeUnion` partitions.
    Union {
        /// Disjoint time-range partitions (one merge job each).
        partitions: Vec<TimeRange>,
    },
    /// Natural join of two series over `MergeJoin` partitions.
    Join {
        /// Disjoint time-range partitions (one merge job each).
        partitions: Vec<TimeRange>,
        /// Element-wise expression over the joined values, if any.
        op: Option<BinOp>,
        /// Inter-column predicate on the joined values, if any.
        on: Option<CmpOp>,
    },
    /// Paired aggregation over the natural join (§IV): matched pairs
    /// fold into moments in time order.
    PairAgg {
        /// The paired aggregate.
        func: PairAggFunc,
    },
}

/// A pipeline operator, used to render the per-page-group chain in
/// `EXPLAIN` output.
#[derive(Debug, Clone)]
pub enum Node {
    /// Source: hands encoded pages to the pipeline.
    SourcePages,
    /// Source: hands the hot-chunk snapshot's decoded columns to the
    /// pipeline (no unpack/delta work — the buffer was never encoded).
    SourceHot,
    /// Algorithm 1 decode of the value (and, when filtered, timestamp)
    /// columns.
    DecodeScan {
        /// True on the byte-serial baseline.
        serial: bool,
    },
    /// Predicate evaluation over decoded vectors.
    Filter {
        /// A time conjunct is present.
        time: bool,
        /// A value conjunct is present.
        value: bool,
    },
    /// Partial aggregation of decoded (masked) vectors.
    PartialAgg {
        /// Aggregation function.
        func: AggFunc,
    },
    /// Ordered concatenation of partials.
    MergeConcat,
    /// Time-ordered union merge.
    MergeUnion,
    /// Natural-join merge on timestamps.
    MergeJoin,
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::SourcePages => write!(f, "SourcePages"),
            Node::SourceHot => write!(f, "SourceHot"),
            Node::DecodeScan { serial: false } => write!(f, "DecodeScan"),
            Node::DecodeScan { serial: true } => write!(f, "DecodeScan[serial]"),
            Node::Filter { time, value } => {
                write!(f, "Filter[")?;
                match (time, value) {
                    (true, true) => write!(f, "time,value")?,
                    (true, false) => write!(f, "time")?,
                    (false, true) => write!(f, "value")?,
                    (false, false) => write!(f, "none")?,
                }
                write!(f, "]")
            }
            Node::PartialAgg { func } => write!(f, "PartialAgg[{}]", func.name()),
            Node::MergeConcat => write!(f, "MergeConcat"),
            Node::MergeUnion => write!(f, "MergeUnion"),
            Node::MergeJoin => write!(f, "MergeJoin"),
        }
    }
}
