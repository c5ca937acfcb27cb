//! The integrated IoT database facade (paper §VI): storage + SQL +
//! pipeline engine behind one handle.

use std::time::Instant;

use etsqp_encoding::Encoding;
use etsqp_storage::store::SeriesStore;

use crate::cancel::CancellationToken;
use crate::expr::{AggFunc, Plan, Predicate, TimeRange};
use crate::float::FloatRange;
use crate::physical::pipe::{self, PhysicalPlan};
use crate::plan::{execute, run_compiled, PipelineConfig, QueryResult, Value};
use crate::sql;
use crate::{Error, Result};

/// Engine-level options (per-database defaults for every query).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Pipeline configuration (threads, pruning, vectorization, caching).
    pub pipeline: PipelineConfig,
    /// Points per flushed page.
    pub page_points: usize,
    /// Default timestamp codec for new series.
    pub ts_encoding: Encoding,
    /// Default value codec for new series.
    pub val_encoding: Encoding,
    /// Shard count of the live-ingestion series map (rounded up to a
    /// power of two). More shards = less append contention across series.
    pub ingest_shards: usize,
    /// Optional time-span seal threshold for hot chunks: a series whose
    /// buffered range covers this many time units seals a page even
    /// before reaching `page_points` (bounded staleness for pruning).
    pub seal_interval: Option<i64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            pipeline: PipelineConfig::default(),
            page_points: etsqp_storage::store::DEFAULT_PAGE_POINTS,
            ts_encoding: Encoding::Ts2Diff,
            val_encoding: Encoding::Ts2Diff,
            ingest_shards: etsqp_storage::ingest::DEFAULT_SHARDS,
            seal_interval: None,
        }
    }
}

impl EngineOptions {
    /// The full ETSQP configuration (vectorized, fused, pruned).
    pub fn etsqp() -> Self {
        Self::default()
    }

    /// ETSQP without the §V pruning rules (the "ETSQP" bar of Fig. 10;
    /// the default is "ETSQP-prune").
    pub fn etsqp_no_prune() -> Self {
        let mut o = Self::default();
        o.pipeline.prune = false;
        o
    }

    /// The serial baseline: byte-sequential decoding, per-tuple operators,
    /// one thread (the "Serial" bar of Fig. 10 / "IoTDB" of Fig. 13).
    pub fn serial() -> Self {
        let mut o = Self::default();
        o.pipeline.vectorized = false;
        o.pipeline.prune = false;
        o.pipeline.threads = 1;
        o
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// Sets the page size in points.
    pub fn with_page_points(mut self, points: usize) -> Self {
        self.page_points = points;
        self
    }

    /// Sets both column codecs for new series.
    pub fn with_encodings(mut self, ts: Encoding, val: Encoding) -> Self {
        self.ts_encoding = ts;
        self.val_encoding = val;
        self
    }

    /// Sets the ingest-map shard count (rounded up to a power of two).
    pub fn with_ingest_shards(mut self, shards: usize) -> Self {
        self.ingest_shards = shards;
        self
    }

    /// Sets the hot-chunk time-span seal threshold.
    pub fn with_seal_interval(mut self, interval: i64) -> Self {
        self.seal_interval = Some(interval);
        self
    }
}

/// An embedded IoT time-series database with the ETSQP query engine.
///
/// `IotDb` is `Send + Sync`: wrap it in an `Arc` and query it from any
/// number of OS threads concurrently. All queries share the process-wide
/// persistent worker pool ([`crate::pool`]), so concurrent short queries
/// interleave their page morsels instead of each spawning threads.
pub struct IotDb {
    store: SeriesStore,
    opts: EngineOptions,
}

// Compile-time proof of the concurrent-use contract above.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IotDb>()
};

impl IotDb {
    /// Creates an empty database.
    pub fn new(opts: EngineOptions) -> Self {
        IotDb {
            store: SeriesStore::with_options(etsqp_storage::store::StoreOptions {
                page_points: opts.page_points,
                shards: opts.ingest_shards,
                seal_interval: opts.seal_interval,
            }),
            opts,
        }
    }

    /// Wraps an existing store (e.g. loaded from a TsFile).
    pub fn with_store(store: SeriesStore, opts: EngineOptions) -> Self {
        IotDb { store, opts }
    }

    /// The underlying page store (shared handle).
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Engine options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Registers a series with the engine's default codecs.
    pub fn create_series(&self, name: &str) -> Result<()> {
        self.store
            .create_series(name, self.opts.ts_encoding, self.opts.val_encoding);
        Ok(())
    }

    /// Registers a series with explicit codecs.
    pub fn create_series_with(&self, name: &str, ts: Encoding, val: Encoding) -> Result<()> {
        self.store.create_series(name, ts, val);
        Ok(())
    }

    /// Appends a point (timestamps must be strictly increasing).
    pub fn append(&self, series: &str, ts: i64, value: i64) -> Result<()> {
        self.store.append(series, ts, value)?;
        Ok(())
    }

    /// Bulk-appends points.
    pub fn append_all(&self, series: &str, ts: &[i64], values: &[i64]) -> Result<()> {
        self.store.append_all(series, ts, values)?;
        Ok(())
    }

    /// Flushes every series' receive buffer to pages.
    pub fn flush(&self) -> Result<()> {
        for name in self.store.series_names() {
            self.store.flush(&name)?;
        }
        Ok(())
    }

    /// Registers a float-valued series (GorillaFloat / Chimp / Elf value
    /// codec).
    pub fn create_series_f64(&self, name: &str, val: etsqp_encoding::Encoding) -> Result<()> {
        self.store
            .create_series_f64(name, self.opts.ts_encoding, val);
        Ok(())
    }

    /// Appends a float point (timestamps must be strictly increasing).
    pub fn append_f64(&self, series: &str, ts: i64, value: f64) -> Result<()> {
        self.store.append_f64(series, ts, value)?;
        Ok(())
    }

    /// Aggregates a float series over optional time / value ranges: a
    /// plan whose value conjunct is `vrange`'s key range
    /// ([`FloatRange::keys`]), run by the engine. `None` when no value
    /// qualifies; COUNT as an `f64`. An integer series is a plan error.
    pub fn aggregate_f64(
        &self,
        series: &str,
        trange: Option<TimeRange>,
        vrange: Option<FloatRange>,
        func: AggFunc,
    ) -> Result<Option<f64>> {
        let pred = Predicate {
            time: trange,
            value: vrange.map(|r| r.keys()),
        };
        let r = self.float_query(&Plan::scan(series).filter(pred).aggregate(func))?;
        Ok(match r.rows[0][0] {
            Value::Float(v) => Some(v),
            Value::Int(count) => Some(count as f64),
            Value::Null => None,
        })
    }

    /// Scans a float series' qualifying rows.
    pub fn scan_f64(
        &self,
        series: &str,
        trange: Option<TimeRange>,
    ) -> Result<(Vec<i64>, Vec<f64>)> {
        let pred = Predicate {
            time: trange,
            value: None,
        };
        let r = self.float_query(&Plan::scan(series).filter(pred))?;
        let mut out = (Vec::with_capacity(r.rows.len()), Vec::new());
        for row in r.rows {
            if let [Value::Int(t), Value::Float(v)] = row[..] {
                out.0.push(t);
                out.1.push(v);
            }
        }
        Ok(out)
    }

    /// Runs a plan over one series, refusing an integer one (an empty
    /// series has no kind, and answers nothing).
    fn float_query(&self, plan: &Plan) -> Result<QueryResult> {
        let start = Instant::now();
        let cfg = &self.opts.pipeline;
        let phys = pipe::compile(plan, &self.store, cfg)?;
        let p = &phys.pipelines[0];
        if !p.float && (!p.segments.is_empty() || p.hot.is_some()) {
            return Err(Error::Plan(format!("{} is not a float series", p.series)));
        }
        run_compiled(&phys, &self.store, cfg, &CancellationToken::none(), start)
    }

    /// Parses and executes one SQL statement. An `EXPLAIN <query>`
    /// statement compiles the query's physical pipeline and returns its
    /// rendering in [`QueryResult::explain`] instead of rows.
    pub fn query(&self, sql_text: &str) -> Result<QueryResult> {
        self.query_ctl(sql_text, &CancellationToken::none())
    }

    /// [`IotDb::query`] with a per-query deadline: past `timeout` the
    /// query stops at the next morsel boundary and returns
    /// [`crate::Error::Timeout`]. The worker pool stays fully usable.
    pub fn query_with_timeout(
        &self,
        sql_text: &str,
        timeout: std::time::Duration,
    ) -> Result<QueryResult> {
        self.query_ctl(sql_text, &CancellationToken::with_timeout(timeout))
    }

    /// [`IotDb::query`] under a caller-held [`CancellationToken`]:
    /// calling [`CancellationToken::cancel`] from another thread stops
    /// the query within one morsel with [`crate::Error::Cancelled`].
    pub fn query_ctl(&self, sql_text: &str, ctl: &CancellationToken) -> Result<QueryResult> {
        self.query_with(sql_text, &self.opts.pipeline, ctl)
    }

    /// [`IotDb::query_ctl`] under a one-off pipeline configuration.
    pub fn query_with(
        &self,
        sql_text: &str,
        cfg: &PipelineConfig,
        ctl: &CancellationToken,
    ) -> Result<QueryResult> {
        let start = Instant::now();
        let (plan, explain) = match sql::parse_statement(sql_text)? {
            sql::Statement::Query(plan) => (plan, false),
            sql::Statement::Explain(plan) => (plan, true),
        };
        let phys = self.compile_sql(&plan, cfg)?;
        if !explain {
            return run_compiled(&phys, &self.store, cfg, ctl, start);
        }
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows: Vec::new(),
            stats: crate::exec::ExecStats::default().snapshot(),
            elapsed: start.elapsed(),
            explain: Some(phys.render(cfg)),
        })
    }

    /// Compiles `sql_text`'s query under the engine configuration and
    /// returns the rendered physical pipeline (the `EXPLAIN` text).
    pub fn explain(&self, sql_text: &str) -> Result<String> {
        self.explain_with(sql_text, &self.opts.pipeline)
    }

    /// [`IotDb::explain`] under a one-off pipeline configuration.
    pub fn explain_with(&self, sql_text: &str, cfg: &PipelineConfig) -> Result<String> {
        let plan = match sql::parse_statement(sql_text)? {
            sql::Statement::Query(plan) | sql::Statement::Explain(plan) => plan,
        };
        Ok(self.compile_sql(&plan, cfg)?.render(cfg))
    }

    /// Compiles a plan parsed from SQL. SQL bounds values with integer
    /// literals, which cannot state a float bound (a float series is
    /// filtered on its ordered keys), so a value conjunct on a float
    /// series is a plan error.
    fn compile_sql(&self, plan: &Plan, cfg: &PipelineConfig) -> Result<PhysicalPlan> {
        let phys = pipe::compile(plan, &self.store, cfg)?;
        match (phys.pipelines.iter()).find(|p| p.float && p.pred.value.is_some()) {
            Some(p) => Err(Error::Plan(format!(
                "{} is a float series: an integer literal cannot bound its values",
                p.series
            ))),
            None => Ok(phys),
        }
    }

    /// Executes a pre-built logical plan.
    pub fn execute(&self, plan: &Plan) -> Result<QueryResult> {
        execute(plan, &self.store, &self.opts.pipeline)
    }

    /// Executes a plan under a one-off pipeline configuration.
    pub fn execute_with(&self, plan: &Plan, cfg: &PipelineConfig) -> Result<QueryResult> {
        execute(plan, &self.store, cfg)
    }

    /// Executes a plan under a one-off configuration and a cancellation
    /// token.
    pub fn execute_ctl(
        &self,
        plan: &Plan,
        cfg: &PipelineConfig,
        ctl: &CancellationToken,
    ) -> Result<QueryResult> {
        crate::plan::execute_ctl(plan, &self.store, cfg, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_db(opts: EngineOptions) -> IotDb {
        let db = IotDb::new(opts);
        db.create_series("velocity").unwrap();
        let ts: Vec<i64> = (0..10_000).map(|i| i * 1000).collect();
        let vals: Vec<i64> = (0..10_000).map(|i| 60 + (i % 25)).collect();
        db.append_all("velocity", &ts, &vals).unwrap();
        db.flush().unwrap();
        db
    }

    #[test]
    fn end_to_end_sql_avg() {
        let db = seeded_db(EngineOptions::default());
        let r = db
            .query("SELECT AVG(velocity) FROM velocity WHERE time >= 0 AND time <= 9999000")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let Value::Float(avg) = r.rows[0][0] else {
            panic!("{:?}", r.rows)
        };
        let want = (0..10_000).map(|i| 60 + (i % 25)).sum::<i64>() as f64 / 10_000.0;
        assert!((avg - want).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_sql() {
        let db = seeded_db(EngineOptions::default());
        let r = db
            .query("SELECT SUM(velocity) FROM velocity SW(0, 1000000)")
            .unwrap();
        // 10_000 points over [0, 9_999_000] in 1e6-wide windows → 10 rows.
        assert_eq!(r.rows.len(), 10);
        let total: i64 = r
            .rows
            .iter()
            .map(|row| match row[1] {
                Value::Int(v) => v,
                _ => panic!(),
            })
            .sum();
        let want: i64 = (0..10_000).map(|i| 60 + (i % 25)).sum();
        assert_eq!(total, want);
    }

    #[test]
    fn engine_variants_agree() {
        let q = "SELECT SUM(velocity) FROM (SELECT * FROM velocity WHERE velocity > 70)";
        let fast = seeded_db(EngineOptions::etsqp()).query(q).unwrap();
        let noprune = seeded_db(EngineOptions::etsqp_no_prune()).query(q).unwrap();
        let serial = seeded_db(EngineOptions::serial()).query(q).unwrap();
        assert_eq!(fast.rows, serial.rows);
        assert_eq!(noprune.rows, serial.rows);
    }

    #[test]
    fn join_queries_via_sql() {
        let db = IotDb::new(EngineOptions::default());
        db.create_series("ts1").unwrap();
        db.create_series("ts2").unwrap();
        for i in 0..1000i64 {
            db.append("ts1", i * 2, i).unwrap();
            db.append("ts2", i * 3, i * 10).unwrap();
        }
        db.flush().unwrap();
        let union = db
            .query("SELECT * FROM ts1 UNION ts2 ORDER BY TIME")
            .unwrap();
        assert_eq!(union.rows.len(), 2000);
        let join = db.query("SELECT * FROM ts1, ts2").unwrap();
        assert!(!join.rows.is_empty());
        let jexpr = db.query("SELECT ts1.A + ts2.A FROM ts1, ts2").unwrap();
        assert_eq!(join.rows.len(), jexpr.rows.len());
    }

    #[test]
    fn out_of_order_append_rejected() {
        let db = IotDb::new(EngineOptions::default());
        db.create_series("s").unwrap();
        db.append("s", 10, 1).unwrap();
        assert!(db.append("s", 10, 2).is_err());
    }

    #[test]
    fn unknown_series_query_errors() {
        let db = IotDb::new(EngineOptions::default());
        assert!(db.query("SELECT SUM(A) FROM nope").is_err());
    }
}
