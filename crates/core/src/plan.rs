//! The logical plan layer: engine configuration, result types, and the
//! scalar finalizers shared by the engine and the oracle.
//!
//! Execution itself lives in [`crate::physical`]: [`execute`] compiles
//! the logical [`Plan`] with the Algorithm 2 generator
//! ([`crate::physical::pipe::compile`]) into an explicit pipeline DAG —
//! per-page §V prune verdicts, §IV fusion strategies and Figure 9 merge
//! partitions, all as inspectable data — and
//! hands that DAG to the pipeline driver. `EXPLAIN` renders the same
//! compiled artifact, so the textual plan is the executed plan.

use std::time::Instant;

use etsqp_encoding::ordered_i64_to_f64;
use etsqp_storage::store::SeriesStore;

use crate::exec::{ExecStats, StatsSnapshot};
use crate::expr::{AggFunc, PairAggFunc, Plan, Predicate};
use crate::partial::PartialState;
use crate::physical::{driver, pipe};
use crate::{Error, Result};

/// Configuration of the pipeline engine — the knobs the evaluation varies.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Worker threads (core-level parallelism, §III-C).
    pub threads: usize,
    /// Enable the §V pruning rules (ETSQP-prune vs ETSQP).
    pub prune: bool,
    /// Use the vectorized decoders; `false` is the byte-serial engine
    /// ("IoTDB" in Fig. 13, "Serial" in Fig. 10).
    pub vectorized: bool,
    /// Serve whole-page and whole-segment partials of eligible pages
    /// without folding them: an exact aggregate from the exact header
    /// plus the moments a whole fold memoized on the resident page or
    /// segment (`Page::moments`, `Segment::moments`), a quantile from the
    /// digest a segment keeps of its merge group (`Segment::digest`).
    /// `EXPLAIN` renders the static eligibility as `[cacheable]`;
    /// [`StatsSnapshot::cache_hits`]/[`StatsSnapshot::cache_misses`]
    /// count the live traffic.
    pub partial_cache: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            prune: true,
            vectorized: true,
            partial_cache: true,
        }
    }
}

/// One result cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Exact integer.
    Int(i64),
    /// Floating-point (AVG, VARIANCE, or an overflowing SUM widened per
    /// §VI-C).
    Float(f64),
    /// No qualifying tuples.
    Null,
}

impl Value {
    /// The cell of a column value `v`; a float series' (`float`) value
    /// is its ordered key, which maps back to the `f64`.
    pub(crate) fn of(v: i64, float: bool) -> Value {
        if float {
            Value::Float(ordered_i64_to_f64(v))
        } else {
            Value::Int(v)
        }
    }

    /// The value as f64 (NaN for NULL) — convenient in tests/benches.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            Value::Null => f64::NAN,
        }
    }
}

/// The answer to a query plus its execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Stage/pruning counters collected during execution.
    pub stats: StatsSnapshot,
    /// Wall-clock execution time.
    pub elapsed: std::time::Duration,
    /// For `EXPLAIN` statements: the rendered physical pipeline instead
    /// of result rows.
    pub explain: Option<String>,
}

/// Executes a logical plan against a store: Algorithm 2 compilation
/// ([`pipe::compile`]) followed by the pipeline driver.
pub fn execute(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Result<QueryResult> {
    execute_ctl(plan, store, cfg, &crate::cancel::CancellationToken::none())
}

/// [`execute`] under a [`crate::cancel::CancellationToken`]: the token is
/// checked at every morsel boundary, so cancellation or a deadline stops
/// the query within one page of work.
pub fn execute_ctl(
    plan: &Plan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
    ctl: &crate::cancel::CancellationToken,
) -> Result<QueryResult> {
    let start = Instant::now();
    let phys = pipe::compile(plan, store, cfg)?;
    run_compiled(&phys, store, cfg, ctl, start)
}

/// The driver half of [`execute_ctl`]: runs a plan compiled at `start`.
pub(crate) fn run_compiled(
    phys: &pipe::PhysicalPlan,
    store: &SeriesStore,
    cfg: &PipelineConfig,
    ctl: &crate::cancel::CancellationToken,
    start: Instant,
) -> Result<QueryResult> {
    let stats = ExecStats::default();
    let (columns, rows) = driver::run(phys, store, cfg, &stats, ctl)?;
    Ok(QueryResult {
        columns,
        rows,
        stats: stats.snapshot(),
        elapsed: start.elapsed(),
        explain: None,
    })
}

/// Running second-order moments of naturally joined pairs (§IV: the
/// quantities behind dot products, covariance and correlation).
#[derive(Debug, Default, Clone, Copy)]
pub struct PairMoments {
    /// Matched tuple count.
    pub n: u64,
    /// Σ a.
    pub sum_a: i128,
    /// Σ b.
    pub sum_b: i128,
    /// Σ a·b. Like [`etsqp_simd::agg::AggState::sum_sq`], the second-order moments
    /// saturate at the `i128` limits rather than wrapping.
    pub sum_ab: i128,
    /// Σ a².
    pub sum_aa: i128,
    /// Σ b².
    pub sum_bb: i128,
}

impl PairMoments {
    /// Folds one matched pair.
    pub fn push(&mut self, a: i64, b: i64) {
        let (a, b) = (a as i128, b as i128);
        self.n += 1;
        self.sum_a += a;
        self.sum_b += b;
        self.sum_ab = self.sum_ab.saturating_add(a * b);
        self.sum_aa = self.sum_aa.saturating_add(a * a);
        self.sum_bb = self.sum_bb.saturating_add(b * b);
    }

    /// Population covariance.
    pub fn covariance(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        Some(self.sum_ab as f64 / n - (self.sum_a as f64 / n) * (self.sum_b as f64 / n))
    }

    /// Pearson correlation.
    pub fn correlation(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        // Marginal variances are non-negative; clamp away f64 rounding
        // (and Σx² saturation at extreme magnitudes) before the sqrt.
        let var_a = (self.sum_aa as f64 / n - (self.sum_a as f64 / n).powi(2)).max(0.0);
        let var_b = (self.sum_bb as f64 / n - (self.sum_b as f64 / n).powi(2)).max(0.0);
        let denom = (var_a * var_b).sqrt();
        (denom > 0.0).then(|| self.covariance().unwrap() / denom)
    }
}

/// Converts final pair moments into the paired aggregate's result cell.
pub fn finalize_pair(func: PairAggFunc, m: PairMoments) -> Value {
    if m.n == 0 {
        return Value::Null;
    }
    match func {
        PairAggFunc::Dot => i64::try_from(m.sum_ab)
            .map(Value::Int)
            .unwrap_or(Value::Float(m.sum_ab as f64)),
        PairAggFunc::Covariance => m.covariance().map(Value::Float).unwrap_or(Value::Null),
        PairAggFunc::Correlation => m.correlation().map(Value::Float).unwrap_or(Value::Null),
    }
}

/// Walks Filter/Scan chains collecting the conjunctive predicate
/// (Algorithm 2 lines 1–3: single-column filters are pushed to the scan).
pub(crate) fn flatten_scan(plan: &Plan) -> Result<(String, Predicate)> {
    match plan {
        Plan::Scan { series } => Ok((series.clone(), Predicate::default())),
        Plan::Filter { input, pred } => {
            let (series, inner) = flatten_scan(input)?;
            Ok((series, inner.and(pred)))
        }
        other => Err(Error::Plan(format!(
            "expected a (filtered) series scan, got {other:?}"
        ))),
    }
}

/// Converts a final [`PartialState`] into the result cell for `func`:
/// quantiles read the t-digest sketch, `RATE`/`DELTA` read the exact
/// first/last values and timestamps, and everything else reads the
/// embedded exact moments. A state built from a bare `AggState`
/// (`PartialState::from`) carries neither sketch nor timestamps, so the
/// quantiles and `RATE` answer `Null` on it. A float series' state
/// answers in `f64`: MIN / MAX / FIRST / LAST mapped back from their
/// ordered keys, SUM / AVG / VARIANCE from its real moments, RATE /
/// DELTA from its real ends; COUNT stays an `Int`.
pub fn finalize(func: AggFunc, state: &PartialState) -> Value {
    let agg = &state.agg;
    if agg.count == 0 {
        return Value::Null;
    }
    let real = state.real;
    let value = |k: Option<i64>| k.map_or(Value::Null, |k| Value::of(k, real.is_some()));
    // `last − first`, real, or in i128: the span may exceed i64 even
    // though each end fits.
    let span = |f: i64, l: i64| match real {
        Some(_) => ordered_i64_to_f64(l) - ordered_i64_to_f64(f),
        None => (l as i128 - f as i128) as f64,
    };
    let n = agg.count as f64;
    match (func, real) {
        (AggFunc::Sum, Some(r)) => Value::Float(r.sum),
        (AggFunc::Sum, None) => i64::try_from(agg.sum)
            .map(Value::Int)
            .unwrap_or(Value::Float(agg.sum as f64)),
        (AggFunc::Count, _) => Value::Int(agg.count as i64),
        (AggFunc::Avg, Some(r)) => Value::Float(r.sum / n),
        (AggFunc::Avg, None) => agg.avg().map(Value::Float).unwrap_or(Value::Null),
        // Clamp: population variance is non-negative, but the
        // E[x²]−mean² form can round below zero in f64.
        (AggFunc::Variance, Some(r)) => Value::Float((r.sum_sq / n - (r.sum / n).powi(2)).max(0.0)),
        (AggFunc::Variance, None) => agg.variance().map(Value::Float).unwrap_or(Value::Null),
        (AggFunc::Min, _) => value(agg.min),
        (AggFunc::Max, _) => value(agg.max),
        (AggFunc::First, _) => value(agg.first),
        (AggFunc::Last, _) => value(agg.last),
        (AggFunc::P50 | AggFunc::P95 | AggFunc::P99, _) => {
            let q = func.quantile().unwrap_or(0.5);
            match &state.digest {
                Some(d) if d.count() > 0 => Value::Float(d.quantile(q)),
                _ => Value::Null,
            }
        }
        (AggFunc::Rate, _) => match (agg.first, agg.last, state.first_ts, state.last_ts) {
            (Some(f), Some(l), Some(ft), Some(lt)) if ft != lt => {
                Value::Float(span(f, l) / (lt as i128 - ft as i128) as f64)
            }
            _ => Value::Null, // fewer than two distinct instants
        },
        (AggFunc::Delta, _) => match (agg.first, agg.last) {
            (Some(f), Some(l)) if real.is_none() => i64::try_from(l as i128 - f as i128)
                .map(Value::Int)
                .unwrap_or(Value::Float(span(f, l))),
            (Some(f), Some(l)) => Value::Float(span(f, l)),
            _ => Value::Null,
        },
    }
}
