//! Logical query plans — the IoT expression language of Definitions 1–2
//! (filters, aggregations, sliding windows, concatenation, natural join),
//! the input to the `Pipe` pipeline generator (Algorithm 2).

use etsqp_storage::page::PageHeader;

/// Aggregation functions (`f` in `f(e, mask)` / `G_sw:f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Σ of valid values.
    Sum,
    /// Arithmetic mean (algebraic: SUM/COUNT).
    Avg,
    /// Number of valid tuples.
    Count,
    /// Minimum valid value.
    Min,
    /// Maximum valid value.
    Max,
    /// Population variance (algebraic: needs Σx²).
    Variance,
    /// First qualifying value in time order (IoT FIRST_VALUE).
    First,
    /// Last qualifying value in time order (IoT LAST_VALUE).
    Last,
    /// Median (50th percentile), estimated by a t-digest sketch.
    P50,
    /// 95th percentile, estimated by a t-digest sketch.
    P95,
    /// 99th percentile, estimated by a t-digest sketch.
    P99,
    /// `(last − first) / (last_ts − first_ts)` — per-time-unit rate of
    /// change between the first and last qualifying tuples.
    Rate,
    /// `last − first` — value change between the first and last
    /// qualifying tuples.
    Delta,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Variance => "VARIANCE",
            AggFunc::First => "FIRST",
            AggFunc::Last => "LAST",
            AggFunc::P50 => "P50",
            AggFunc::P95 => "P95",
            AggFunc::P99 => "P99",
            AggFunc::Rate => "RATE",
            AggFunc::Delta => "DELTA",
        }
    }

    /// The quantile level of a percentile aggregate, if this is one.
    pub fn quantile(self) -> Option<f64> {
        match self {
            AggFunc::P50 => Some(0.5),
            AggFunc::P95 => Some(0.95),
            AggFunc::P99 => Some(0.99),
            _ => None,
        }
    }

    /// Whether finalization needs a t-digest sketch of the values.
    pub fn needs_digest(self) -> bool {
        self.quantile().is_some()
    }

    /// Whether finalization needs the first/last qualifying timestamps
    /// (rate/delta read the time axis, not just the values).
    pub fn needs_ts(self) -> bool {
        matches!(self, AggFunc::Rate | AggFunc::Delta)
    }

    /// Aggregates computable only from tuple-level partials: they never
    /// take the fold cursor — every
    /// kept page decodes (with its timestamps) into a
    /// [`crate::partial::PartialState`].
    pub fn partial_only(self) -> bool {
        self.needs_digest() || self.needs_ts()
    }
}

/// An inclusive time range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl TimeRange {
    /// The full time domain.
    pub fn all() -> Self {
        TimeRange {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// Intersection of two ranges; empty ranges have `lo > hi`.
    pub fn intersect(&self, other: &TimeRange) -> TimeRange {
        TimeRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether the range contains no instants.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether `t` lies inside.
    pub fn contains(&self, t: i64) -> bool {
        t >= self.lo && t <= self.hi
    }

    /// Whether every timestamp of the page (or segment) `header`
    /// describes lies inside (`[first_ts, last_ts]` is exact, so this is
    /// "the qualifying index range is the whole page").
    pub fn covers(&self, header: &PageHeader) -> bool {
        self.lo <= header.first_ts && header.last_ts <= self.hi
    }

    /// The half-open index range `[a, b)` of the ascending timestamps
    /// `ts` that lie inside (`a == b` when none do): ordered time makes
    /// every time filter an index range.
    pub fn index_range(&self, ts: &[i64]) -> (usize, usize) {
        let a = ts.partition_point(|&t| t < self.lo);
        let b = ts.partition_point(|&t| t <= self.hi);
        (a, b.max(a)) // an inverted range (lo > hi) selects nothing
    }
}

/// Conjunctive predicates over one series (single-column: time or value).
///
/// Bounds are **inclusive**; strict SQL comparisons are normalized by the
/// parser (`A > a` ⇒ `lo = a + 1` on the integer domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Predicate {
    /// Optional time-range conjunct.
    pub time: Option<TimeRange>,
    /// Optional value-range conjunct `[lo, hi]`.
    pub value: Option<(i64, i64)>,
}

impl Predicate {
    /// A predicate with only a time conjunct.
    pub fn time(lo: i64, hi: i64) -> Self {
        Predicate {
            time: Some(TimeRange { lo, hi }),
            value: None,
        }
    }

    /// A predicate with only a value conjunct.
    pub fn value(lo: i64, hi: i64) -> Self {
        Predicate {
            time: None,
            value: Some((lo, hi)),
        }
    }

    /// Conjunction of two predicates.
    pub fn and(&self, other: &Predicate) -> Predicate {
        Predicate {
            time: match (self.time, other.time) {
                (Some(a), Some(b)) => Some(a.intersect(&b)),
                (a, b) => a.or(b),
            },
            value: match (self.value, other.value) {
                (Some((al, ah)), Some((bl, bh))) => Some((al.max(bl), ah.min(bh))),
                (a, b) => a.or(b),
            },
        }
    }

    /// True when neither conjunct is present.
    pub fn is_trivial(&self) -> bool {
        self.time.is_none() && self.value.is_none()
    }

    /// The conjuncts `header` does not prove for every tuple of its page:
    /// the time conjunct goes when `[first_ts, last_ts]` lies inside it
    /// ([`TimeRange::covers`]), the value conjunct when `[min_value,
    /// max_value]` does and `prune` is on (with the §V rules off no value
    /// bound is trusted; a covered time conjunct is exact index
    /// arithmetic and goes regardless). The page's exact contribution
    /// under `self` is its contribution under the residual — a trivial
    /// residual means "every tuple qualifies", the converse of a §V
    /// prune. The one coverage rule of the engine, for a page and for a
    /// segment's union alike; it trusts the header, so an executor takes
    /// it only after the page's checksum.
    pub fn residual(&self, header: &PageHeader, prune: bool) -> Predicate {
        Predicate {
            time: self.time.filter(|t| !t.covers(header)),
            value: self
                .value
                .filter(|&(lo, hi)| !prune || lo > header.min_value || hi < header.max_value),
        }
    }
}

/// A sliding-window description `sw(T_min, ΔT)`: window `k` covers
/// `[T_min + k·ΔT, T_min + (k+1)·ΔT)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlidingWindow {
    /// Start of window 0.
    pub t_min: i64,
    /// Window width (must be positive).
    pub dt: i64,
}

impl SlidingWindow {
    /// Whether every timestamp up to `last_ts` can be bucketed in `i64`:
    /// the width is positive, `last_ts − t_min` fits (what
    /// [`SlidingWindow::window_of`] computes) and there is room above
    /// `last_ts` for its bucket's end and the start of the next one
    /// (what [`SlidingWindow::range`] computes). Both use unchecked
    /// arithmetic; the planner rejects a window failing this test.
    pub fn can_bucket(&self, last_ts: i64) -> bool {
        self.dt > 0
            && (last_ts < self.t_min
                || (last_ts.checked_sub(self.t_min).is_some()
                    && last_ts
                        .checked_add(self.dt)
                        .and_then(|t| t.checked_add(self.dt))
                        .is_some()))
    }

    /// The window index containing `t`, if `t ≥ t_min`.
    pub fn window_of(&self, t: i64) -> Option<usize> {
        (t >= self.t_min).then(|| ((t - self.t_min) / self.dt) as usize)
    }

    /// Inclusive time range of window `k` (`[start, start + dt − 1]`).
    pub fn range(&self, k: usize) -> TimeRange {
        let start = self.t_min + k as i64 * self.dt;
        TimeRange {
            lo: start,
            hi: start + self.dt - 1,
        }
    }
}

/// Comparison operators for inter-column predicates (Algorithm 2 line 8:
/// filters that need both columns decoded, applied to the joined vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a = b`
    Eq,
}

impl CmpOp {
    /// Evaluates the comparison.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
        }
    }
}

/// Element-wise binary operators for inter-column expressions (Q4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

impl BinOp {
    /// Applies the operator with wrapping semantics.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Two-series (paired) aggregation functions computed over naturally
/// joined tuples — the §IV extension to `Σ AᵢBᵢ`-style aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairAggFunc {
    /// `Σ AᵢBᵢ` over matching timestamps.
    Dot,
    /// Population covariance of the matched pairs.
    Covariance,
    /// Pearson correlation of the matched pairs.
    Correlation,
}

impl PairAggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            PairAggFunc::Dot => "DOT",
            PairAggFunc::Covariance => "COV",
            PairAggFunc::Correlation => "CORR",
        }
    }
}

/// Logical query plans — the `e` of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan one series.
    Scan {
        /// Series name.
        series: String,
    },
    /// `σ_θ(e)` with a single-column conjunctive predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// The predicate.
        pred: Predicate,
    },
    /// Whole-input aggregation `f(e, mask)`.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Aggregation function.
        func: AggFunc,
    },
    /// `G_{sw(T_min, ΔT): f}(e)` — one aggregate row per window instance.
    WindowAggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Window description.
        window: SlidingWindow,
        /// Aggregation function.
        func: AggFunc,
    },
    /// Natural join on timestamps followed by an element-wise expression
    /// over the two value columns (Q4: `ts1.A + ts2.A`).
    JoinExpr {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// The element-wise operator.
        op: BinOp,
    },
    /// Series concatenation / merge ordered by time (Q5: `UNION … ORDER
    /// BY TIME`).
    Union {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
    },
    /// Natural join emitting `(t, a_left, a_right)` tuples (Q6),
    /// optionally restricted by an inter-column predicate
    /// `left.A <op> right.A` (Algorithm 2 Eq. 3: applied to the decoded
    /// vectors after the timestamp join).
    Join {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// Inter-column predicate between the joined values.
        on: Option<CmpOp>,
    },
    /// Paired aggregation over the natural join (§IV: `Σ AᵢBᵢ`,
    /// covariance, correlation).
    JoinAggregate {
        /// Left series plan.
        left: Box<Plan>,
        /// Right series plan.
        right: Box<Plan>,
        /// The paired aggregate.
        func: PairAggFunc,
    },
}

impl Plan {
    /// Convenience: scan of a named series.
    pub fn scan(series: &str) -> Plan {
        Plan::Scan {
            series: series.to_string(),
        }
    }

    /// Pushes `pred` onto this plan.
    pub fn filter(self, pred: Predicate) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    /// Wraps this plan in a whole-input aggregate.
    pub fn aggregate(self, func: AggFunc) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            func,
        }
    }

    /// Wraps this plan in a sliding-window aggregate.
    pub fn window(self, t_min: i64, dt: i64, func: AggFunc) -> Plan {
        Plan::WindowAggregate {
            input: Box::new(self),
            window: SlidingWindow { t_min, dt },
            func,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_range_algebra() {
        let a = TimeRange { lo: 0, hi: 100 };
        let b = TimeRange { lo: 50, hi: 200 };
        assert_eq!(a.intersect(&b), TimeRange { lo: 50, hi: 100 });
        assert!(!a.intersect(&b).is_empty());
        let c = TimeRange { lo: 150, hi: 200 };
        assert!(a.intersect(&c).is_empty());
        assert!(TimeRange::all().contains(i64::MIN));
    }

    #[test]
    fn predicate_conjunction() {
        let p = Predicate::time(0, 100).and(&Predicate::value(5, 50));
        assert_eq!(p.time, Some(TimeRange { lo: 0, hi: 100 }));
        assert_eq!(p.value, Some((5, 50)));
        let q = p.and(&Predicate::time(50, 200));
        assert_eq!(q.time, Some(TimeRange { lo: 50, hi: 100 }));
    }

    #[test]
    fn residual_keeps_what_the_header_does_not_prove() {
        let header = PageHeader {
            count: 10,
            first_ts: 100,
            last_ts: 190,
            min_value: -500,
            max_value: 700,
            ts_encoding: etsqp_encoding::Encoding::Ts2Diff,
            val_encoding: etsqp_encoding::Encoding::Ts2Diff,
        };
        let r = |p: Predicate| p.residual(&header, true);
        // Bounds exactly on the header's prove; one past them does not.
        let covering = Predicate::time(100, 190).and(&Predicate::value(-500, 700));
        assert!(r(covering).is_trivial());
        // With pruning off only the time conjunct is proven.
        assert_eq!(
            covering.residual(&header, false),
            Predicate::value(-500, 700)
        );
        assert_eq!(r(Predicate::time(101, 190)), Predicate::time(101, 190));
        assert_eq!(r(Predicate::time(100, 189)), Predicate::time(100, 189));
        assert_eq!(r(Predicate::value(-499, 700)), Predicate::value(-499, 700));
        assert_eq!(r(Predicate::value(-500, 699)), Predicate::value(-500, 699));
        // Each conjunct on its own: a covered time, a cut value.
        let mixed = Predicate::time(0, 1_000).and(&Predicate::value(0, i64::MAX));
        assert_eq!(r(mixed), Predicate::value(0, i64::MAX));
        assert_eq!(r(Predicate::default()), Predicate::default());
        // An empty conjunct proves nothing.
        assert_eq!(r(Predicate::value(5, 4)), Predicate::value(5, 4));
    }

    #[test]
    fn sliding_window_indexing() {
        let sw = SlidingWindow { t_min: 100, dt: 50 };
        assert_eq!(sw.window_of(100), Some(0));
        assert_eq!(sw.window_of(149), Some(0));
        assert_eq!(sw.window_of(150), Some(1));
        assert_eq!(sw.window_of(99), None);
        assert_eq!(sw.range(2), TimeRange { lo: 200, hi: 249 });
    }

    #[test]
    fn can_bucket_rejects_overflowing_origins_and_widths() {
        let sw = |t_min, dt| SlidingWindow { t_min, dt };
        assert!(sw(0, 10).can_bucket(1_000_000));
        assert!(sw(i64::MIN, 10).can_bucket(-1), "negative span still fits");
        assert!(!sw(i64::MIN, 10).can_bucket(0), "0 - i64::MIN overflows");
        assert!(!sw(0, 0).can_bucket(5) && !sw(0, -3).can_bucket(5));
        assert!(!sw(0, 10).can_bucket(i64::MAX - 15), "bucket end overflows");
        assert!(sw(100, i64::MAX).can_bucket(50), "nothing to bucket");
    }

    #[test]
    fn index_range_of_sorted_timestamps() {
        let ts = [10, 20, 30, 40];
        assert_eq!(TimeRange { lo: 15, hi: 30 }.index_range(&ts), (1, 3));
        assert_eq!(TimeRange::all().index_range(&ts), (0, 4));
        assert_eq!(TimeRange { lo: 41, hi: 99 }.index_range(&ts), (4, 4));
        assert_eq!(TimeRange { lo: 35, hi: 12 }.index_range(&ts), (3, 3));
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2, 3), 5);
        assert_eq!(BinOp::Sub.apply(2, 3), -1);
        assert_eq!(BinOp::Mul.apply(i64::MAX, 2), -2); // wrapping
    }

    #[test]
    fn plan_builders_compose() {
        let p = Plan::scan("velocity")
            .filter(Predicate::time(0, 10))
            .aggregate(AggFunc::Avg);
        match p {
            Plan::Aggregate { input, func } => {
                assert_eq!(func, AggFunc::Avg);
                assert!(matches!(*input, Plan::Filter { .. }));
            }
            _ => panic!("wrong shape"),
        }
    }
}
