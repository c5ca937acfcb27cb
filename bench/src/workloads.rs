//! The five workloads: what each one stores, which queries it issues and
//! in what order, and how its answers are checked before anything is
//! timed. Sizes are stated in `bench/README.md`.

use std::sync::Arc;
use std::time::Instant;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::Plan;
use etsqp_core::partial::TDigest;
use etsqp_core::plan::Value;
use etsqp_core::{oracle, sql};
use etsqp_encoding::Encoding;
use etsqp_serve::client::{Client, Response};
use etsqp_serve::server::{self, ServerHandle};
use etsqp_serve::ServeConfig;

use crate::gen::{self, SeriesSpec, Shape, SplitMix64, TICK};
use crate::metrics::CODECS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanFused,
    ScanDecode,
    DashShort,
    WireShort,
    IngestLive,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::ScanFused,
        Kind::ScanDecode,
        Kind::DashShort,
        Kind::WireShort,
        Kind::IngestLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanFused => "scan_fused",
            Kind::ScanDecode => "scan_decode",
            Kind::DashShort => "dash_short",
            Kind::WireShort => "wire_short",
            Kind::IngestLive => "ingest_live",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop callers. `dash_short` gets one caller per two cores,
    /// at most four: every caller wakes engine workers for each query, and
    /// with a caller per core, callers and workers together outnumber the
    /// cores, so the run measures the scheduler (beside one busy loop on
    /// this 2-core host, p99 of two callers rose 3.5 times, 690 to
    /// 2470 us, and that of one caller did not move, 450 to 415 us). A
    /// scan has one caller because the engine already spreads one query
    /// over every core; `ingest_live` has one querier beside its one
    /// writer.
    ///
    /// `wire_short` opens two connections per core, at most eight, each
    /// with a seeded think time (see `run::THINK_US`), so they sleep most
    /// of the time and load about half a core between them. Where the
    /// scheduler puts a connection's handler and runner still moves that
    /// connection's median by a tenth (with two connections, one run in
    /// ten read 550 us or more against 505 us); the pooled median over
    /// four stayed within 3 % over twelve runs.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Kind::DashShort => (nproc / 2).clamp(1, 4),
            Kind::WireShort => 2 * nproc.clamp(1, 4),
            Kind::ScanFused | Kind::ScanDecode | Kind::IngestLive => 1,
        }
    }
}

/// Scan stores: pages per series × points per page. Four series make
/// 12288 cacheable pages against the 8192-entry partial cache.
pub const SCAN_PAGES: usize = 3072;
pub const SCAN_PAGE_POINTS: usize = 1024;
/// `scan_fused` floods the cache only if three other whole-series scans
/// outnumber its 8192 entries (see `scan_fused_queries`).
const _: () = assert!(3 * SCAN_PAGES > 8192);
/// Dashboard stores: 8 series × 64 pages × 256 points (512 pages; with six
/// aggregate functions at most 3072 cache entries — it fits).
pub const DASH_SERIES: usize = 8;
pub const DASH_PAGES: usize = 64;
pub const DASH_PAGE_POINTS: usize = 256;
/// Live ingestion: 8 series, 256-point pages, 1 Mi points per epoch —
/// about a tenth of a window, so every window averages over the cheap
/// start and the dear end of several epochs.
pub const LIVE_SERIES: usize = 8;
pub const LIVE_PAGE_POINTS: usize = 256;
pub const LIVE_EPOCH_POINTS: usize = 1 << 20;

/// Wave period in pages: page min/max envelopes repeat every 64 pages, so
/// value pruning keeps the same share of pages on every seed.
const PERIOD_PAGES: usize = 64;

/// One distinct query of a workload, with the answer every later
/// execution must reproduce.
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub plan: Plan,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Tuples scanned + pruned by one execution (paper VII-B), from the
    /// engine's own counters during verification.
    pub tuples: u64,
    /// Set for a whole-range quantile: the exact sorted values and the
    /// quantile level. A t-digest answer is approximate, and a cache-warm
    /// answer differs in the last digits from the cache-cold one (cached
    /// digests are stored compressed), so these are held to the documented
    /// rank bound every time instead of to equality.
    pub quantile: Option<(Arc<Vec<i64>>, f64)>,
}

impl Query {
    fn new(sql: String) -> Query {
        let plan = match sql::parse_statement(&sql) {
            Ok(sql::Statement::Query(plan)) => plan,
            other => panic!("workload SQL must parse as a query: {sql}: {other:?}"),
        };
        Query {
            sql,
            plan,
            columns: Vec::new(),
            rows: Vec::new(),
            tuples: 0,
            quantile: None,
        }
    }

    /// Whether an answer (in process or off the wire) is the verified one.
    pub fn accepts(&self, columns: &[String], rows: &[Vec<Value>]) -> bool {
        if columns != self.columns {
            return false;
        }
        match (&self.quantile, rows) {
            (Some((sorted, q)), [row]) => {
                matches!(row.as_slice(), [Value::Float(est)] if within_rank_bound(sorted, *q, *est))
            }
            (Some(_), _) => false,
            (None, _) => rows_eq(rows, &self.rows),
        }
    }
}

/// Whether a quantile estimate lies within `TDigest::rank_error_bound` of
/// the exact rank and inside the exact [min, max].
fn within_rank_bound(sorted: &[i64], q: f64, est: f64) -> bool {
    let n = sorted.len();
    if n == 0 {
        return false;
    }
    let rank = sorted.partition_point(|&v| (v as f64) <= est) as f64;
    (rank - q * n as f64).abs() <= TDigest::rank_error_bound(n as u64)
        && est >= sorted[0] as f64
        && est <= sorted[n - 1] as f64
}

/// The point stream of one `ingest_live` epoch, replayed into a fresh
/// database per epoch (which bounds memory).
pub struct LiveInput {
    pub names: Vec<String>,
    pub codecs: Vec<Encoding>,
    pub ts: Vec<Vec<i64>>,
    pub vals: Vec<Vec<i64>>,
}

impl LiveInput {
    pub fn points_per_series(&self) -> usize {
        self.ts[0].len()
    }

    /// An empty database with the epoch's series registered.
    pub fn fresh_db(&self) -> IotDb {
        let db = IotDb::new(EngineOptions::default().with_page_points(LIVE_PAGE_POINTS));
        for (name, codec) in self.names.iter().zip(&self.codecs) {
            db.create_series_with(name, Encoding::Ts2Diff, *codec)
                .expect("series creation is infallible");
        }
        db
    }

    /// A trailing-quarter query over series `s` once `written` of its
    /// points are in.
    pub fn trailing_sql(&self, s: usize, written: usize, func: &str) -> String {
        let lo = self.ts[s][written * 3 / 4];
        let name = &self.names[s];
        format!("SELECT {func}({name}) FROM {name} WHERE time >= {lo}")
    }
}

pub const LIVE_FUNCS: [&str; 3] = ["SUM", "MAX", "COUNT"];

/// Everything set-up builds for one workload.
pub struct Fixture {
    pub kind: Kind,
    pub seed: u64,
    pub db: Arc<IotDb>,
    /// Distinct queries in issue order.
    pub queries: Vec<Query>,
    pub points: u64,
    /// Encoded page bytes, headers included (an exact count).
    pub stored_bytes: u64,
    /// Seconds inside `append_all` + `flush` during load.
    pub load_secs: f64,
    pub server: Option<ServerHandle>,
    pub live: Option<LiveInput>,
}

impl Fixture {
    /// Stops the server, if any, and waits for its threads.
    pub fn teardown(mut self) -> Option<etsqp_serve::StatsSnapshot> {
        self.server.take().map(ServerHandle::shutdown)
    }
}

fn shape_for(codec: Encoding) -> Shape {
    match codec {
        Encoding::DeltaRle => Shape::Runs,
        Encoding::StreamVByte => Shape::Spiky,
        Encoding::Sprintz => Shape::Sensor { noise: 128 },
        Encoding::Gorilla => Shape::Sensor { noise: 4 },
        _ => Shape::Sensor { noise: 32 },
    }
}

fn scan_series(decode: bool) -> Vec<SeriesSpec> {
    let mut specs = vec![
        SeriesSpec::new("clk", Encoding::Ts2Diff, Shape::Clock),
        SeriesSpec::new("val", Encoding::Ts2Diff, shape_for(Encoding::Ts2Diff)),
        SeriesSpec::new("rle", Encoding::DeltaRle, shape_for(Encoding::DeltaRle)),
        SeriesSpec::new(
            "svb",
            Encoding::StreamVByte,
            shape_for(Encoding::StreamVByte),
        ),
    ];
    if decode {
        specs.push(SeriesSpec::new(
            "spz",
            Encoding::Sprintz,
            shape_for(Encoding::Sprintz),
        ));
        specs.push(SeriesSpec::new(
            "gor",
            Encoding::Gorilla,
            shape_for(Encoding::Gorilla),
        ));
    }
    specs
}

/// Eight series cycling through the five codecs.
fn mixed_series(n: usize) -> Vec<SeriesSpec> {
    (0..n)
        .map(|i| {
            let codec = CODECS[i % CODECS.len()];
            SeriesSpec::new(&format!("s{i}"), codec, shape_for(codec))
        })
        .collect()
}

struct Loaded {
    db: IotDb,
    points: u64,
    stored_bytes: u64,
    load_secs: f64,
}

/// Generates each series from its own fork of the seed and loads it
/// through the public write path (`append_all` seals pages as thresholds
/// are crossed; `flush` seals the tail).
fn load(specs: &[SeriesSpec], pages: usize, page_points: usize, rng: &SplitMix64) -> Loaded {
    let db = IotDb::new(EngineOptions::default().with_page_points(page_points));
    let n = pages * page_points;
    let period = (PERIOD_PAGES * page_points) as u64;
    let mut load_secs = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let (ts, vals) = gen::series(spec.shape, n, period, &rng.fork(100 + i as u64));
        db.create_series_with(&spec.name, Encoding::Ts2Diff, spec.codec)
            .expect("series creation is infallible");
        let t = Instant::now();
        db.append_all(&spec.name, &ts, &vals)
            .expect("generated clocks are strictly increasing");
        load_secs += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    db.flush().expect("flush of generated data");
    load_secs += t.elapsed().as_secs_f64();
    let stored_bytes = stored_bytes(&db);
    Loaded {
        db,
        points: (n * specs.len()) as u64,
        stored_bytes,
        load_secs,
    }
}

pub fn stored_bytes(db: &IotDb) -> u64 {
    db.store()
        .series_names()
        .iter()
        .flat_map(|name| db.store().peek_pages(name).expect("listed series exists"))
        .map(|p| p.encoded_len() as u64)
        .sum()
}

/// One query per (template, series), template-major: `{s}` stands for
/// the series name.
fn expand(templates: &[String], specs: &[SeriesSpec]) -> Vec<Query> {
    templates
        .iter()
        .flat_map(|t| {
            specs
                .iter()
                .map(move |spec| Query::new(t.replace("{s}", &spec.name)))
        })
        .collect()
}

fn scan_fused_queries(specs: &[SeriesSpec]) -> Vec<Query> {
    let page_span = SCAN_PAGE_POINTS as i64 * TICK;
    // Template-major order: between two uses of one (page, function) cache
    // entry lie at least eight whole-series scans, 24576 insertions into
    // an 8192-entry FIFO, so every probe misses.
    let templates = [
        "SELECT SUM({s}) FROM {s}".to_string(),
        "SELECT AVG({s}) FROM {s}".to_string(),
        "SELECT COUNT({s}) FROM {s}".to_string(),
        format!("SELECT SUM({{s}}) FROM {{s}} SW(0, {})", 64 * page_span),
        format!(
            "SELECT AVG({{s}}) FROM {{s}} GROUP BY TIME({})",
            256 * page_span
        ),
    ];
    expand(&templates, specs)
}

fn scan_decode_queries(specs: &[SeriesSpec]) -> Vec<Query> {
    let n = SCAN_PAGES * SCAN_PAGE_POINTS;
    let period = (PERIOD_PAGES * SCAN_PAGE_POINTS) as u64;
    let page_span = SCAN_PAGE_POINTS as i64 * TICK;
    let t = |spec: &SeriesSpec, sel: f64| gen::threshold(spec.shape, sel, n, period);
    let mut out = Vec::new();
    // Q3 at selectivity 0.5 and 0.05, on every series.
    for sel in [0.5, 0.05] {
        for spec in specs {
            let s = &spec.name;
            out.push(Query::new(format!(
                "SELECT SUM({s}) FROM (SELECT * FROM {s} WHERE {s} > {})",
                t(spec, sel)
            )));
        }
    }
    // MIN/MAX/VARIANCE under a filter and half-page-misaligned windows,
    // two of the four per series so every codec meets every shape family
    // without doubling the verification time.
    for (i, spec) in specs.iter().enumerate() {
        let (s, t50) = (&spec.name, t(spec, 0.5));
        if i % 2 == 0 {
            out.push(Query::new(format!(
                "SELECT MIN({s}) FROM {s} WHERE {s} > {t50}"
            )));
            out.push(Query::new(format!(
                "SELECT VARIANCE({s}) FROM {s} WHERE {s} > {t50}"
            )));
        } else {
            out.push(Query::new(format!(
                "SELECT MAX({s}) FROM {s} WHERE {s} <= {t50}"
            )));
            out.push(Query::new(format!(
                "SELECT MAX({s}) FROM {s} WHERE {s} > {t50} SW({}, {})",
                -page_span / 2,
                64 * page_span
            )));
        }
    }
    out
}

/// The dashboard mix, rotating over series fastest: per series sixteen
/// narrow quarter-span aggregates (about three quarters of the pages
/// pruned), one GROUP BY TIME and one whole-range P95.
fn dash_queries(specs: &[SeriesSpec]) -> Vec<Query> {
    let span = (DASH_PAGES * DASH_PAGE_POINTS) as i64 * TICK;
    let page_span = DASH_PAGE_POINTS as i64 * TICK;
    let mut templates = Vec::new();
    for j in 0..4i64 {
        // Not page-aligned: dashboards ask for wall-clock ranges.
        let lo = j * (span / 4) * 97 / 100 + 12_345;
        let hi = lo + span / 4;
        for func in ["SUM", "COUNT", "MIN", "MAX"] {
            templates.push(format!(
                "SELECT {func}({{s}}) FROM {{s}} WHERE time >= {lo} AND time <= {hi}"
            ));
        }
    }
    templates.push(format!(
        "SELECT SUM({{s}}) FROM {{s}} GROUP BY TIME({})",
        8 * page_span
    ));
    templates.push("SELECT P95({s}) FROM {s}".to_string());
    expand(&templates, specs)
}

fn live_input(rng: &SplitMix64) -> LiveInput {
    let specs = mixed_series(LIVE_SERIES);
    let n = LIVE_EPOCH_POINTS / LIVE_SERIES;
    let period = (PERIOD_PAGES * LIVE_PAGE_POINTS) as u64;
    let (mut ts, mut vals) = (Vec::new(), Vec::new());
    for (i, spec) in specs.iter().enumerate() {
        let (t, v) = gen::series(spec.shape, n, period, &rng.fork(100 + i as u64));
        ts.push(t);
        vals.push(v);
    }
    LiveInput {
        names: specs.iter().map(|s| s.name.clone()).collect(),
        codecs: specs.iter().map(|s| s.codec).collect(),
        ts,
        vals,
    }
}

/// Set-up: generate, encode and load the workload's store from `seed`
/// and, for `wire_short`, start the server. Timed by the caller.
pub fn setup(kind: Kind, seed: u64) -> Fixture {
    let rng = SplitMix64::new(seed);
    let (loaded, queries, live) = match kind {
        Kind::ScanFused | Kind::ScanDecode => {
            let specs = scan_series(kind == Kind::ScanDecode);
            let loaded = load(&specs, SCAN_PAGES, SCAN_PAGE_POINTS, &rng);
            let queries = if kind == Kind::ScanFused {
                scan_fused_queries(&specs)
            } else {
                scan_decode_queries(&specs)
            };
            (loaded, queries, None)
        }
        Kind::DashShort | Kind::WireShort => {
            let specs = mixed_series(DASH_SERIES);
            let loaded = load(&specs, DASH_PAGES, DASH_PAGE_POINTS, &rng);
            (loaded, dash_queries(&specs), None)
        }
        Kind::IngestLive => {
            // The reference database holds one whole epoch, bulk-loaded:
            // the state every live epoch must reach, page for page.
            let input = live_input(&rng);
            let db = input.fresh_db();
            let t = Instant::now();
            for (s, name) in input.names.iter().enumerate() {
                db.append_all(name, &input.ts[s], &input.vals[s])
                    .expect("generated clocks are strictly increasing");
            }
            db.flush().expect("flush of generated data");
            let load_secs = t.elapsed().as_secs_f64();
            let n = input.points_per_series();
            let queries = LIVE_FUNCS
                .iter()
                .flat_map(|func| {
                    (0..LIVE_SERIES).map(|s| Query::new(input.trailing_sql(s, n, func)))
                })
                .collect();
            let loaded = Loaded {
                points: LIVE_EPOCH_POINTS as u64,
                stored_bytes: stored_bytes(&db),
                load_secs,
                db,
            };
            (loaded, queries, Some(input))
        }
    };
    let db = Arc::new(loaded.db);
    let server = (kind == Kind::WireShort).then(|| {
        server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default())
            .expect("bind a loopback port")
    });
    Fixture {
        kind,
        seed,
        db,
        queries,
        points: loaded.points,
        stored_bytes: loaded.stored_bytes,
        load_secs: loaded.load_secs,
        server,
        live,
    }
}

pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

pub fn rows_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| value_eq(x, y)))
}

/// Counts of the correctness gate.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub oracle_checks: u64,
    pub wire_checks: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Checks {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }
}

/// Every value of a series, sorted (the exact reference for quantiles).
fn sorted_values(db: &IotDb, series: &str) -> Option<Vec<i64>> {
    let mut vals = Vec::new();
    for p in db.store().peek_pages(series).ok()? {
        vals.extend(p.decode().ok()?.1);
    }
    vals.sort_unstable();
    Some(vals)
}

/// The gate before timing: every distinct query runs once through
/// `IotDb::query` and once through `core::oracle::execute`; exact
/// aggregates must agree bit for bit, quantiles within
/// `TDigest::rank_error_bound`. The oracle's answer becomes the answer
/// every timed execution (warm cache, other thread, over the wire) must
/// reproduce. With a server, every query also goes over the wire once.
pub fn verify(fx: &mut Fixture) -> Checks {
    let mut checks = Checks::default();
    for q in &mut fx.queries {
        checks.oracle_checks += 1;
        let got = match fx.db.query(&q.sql) {
            Ok(r) => r,
            Err(e) => {
                checks.mismatch(format!("{}: engine error {e}", q.sql));
                continue;
            }
        };
        let (ocols, orows) = match oracle::execute(&q.plan, fx.db.store()) {
            Ok(r) => r,
            Err(e) => {
                checks.mismatch(format!("{}: oracle error {e}", q.sql));
                continue;
            }
        };
        q.tuples = got.stats.tuples_total();
        q.columns = ocols;
        q.rows = orows;
        if let Plan::Aggregate { input, func } = &q.plan {
            if let (Some(level), Plan::Scan { series }) = (func.quantile(), &**input) {
                q.quantile = sorted_values(&fx.db, series).map(|v| (Arc::new(v), level));
            }
        }
        if !q.accepts(&got.columns, &got.rows) {
            checks.mismatch(format!("{}: engine and oracle disagree", q.sql));
        }
    }
    if let Some(server) = &fx.server {
        match Client::connect(server.addr()) {
            Ok(mut client) => {
                for q in &fx.queries {
                    checks.wire_checks += 1;
                    match client.query(&q.sql) {
                        Ok(Response::Rows(r)) if q.accepts(&r.columns, &r.rows) => {}
                        other => checks.mismatch(format!(
                            "{}: wire answer differs from in-process: {other:?}",
                            q.sql
                        )),
                    }
                }
            }
            Err(e) => checks.mismatch(format!("connect for wire verification: {e}")),
        }
    }
    if let Some(input) = &fx.live {
        verify_live_prefix(input, &mut checks);
    }
    checks
}

/// `ingest_live` reads sealed pages and the hot chunk in one query; the
/// reference database is all sealed, so this checks the mixed state on a
/// short prefix appended point by point (three full pages plus a partial
/// hot chunk per series) against the oracle.
fn verify_live_prefix(input: &LiveInput, checks: &mut Checks) {
    let db = input.fresh_db();
    let n = LIVE_PAGE_POINTS * 3 + LIVE_PAGE_POINTS / 2;
    for i in 0..n {
        for (s, name) in input.names.iter().enumerate() {
            if let Err(e) = db.append(name, input.ts[s][i], input.vals[s][i]) {
                checks.mismatch(format!("append to {name}: {e}"));
                return;
            }
        }
    }
    for func in LIVE_FUNCS {
        for s in 0..LIVE_SERIES {
            checks.oracle_checks += 1;
            let q = Query::new(input.trailing_sql(s, n, func));
            let agree = match (db.query(&q.sql), oracle::execute(&q.plan, db.store())) {
                (Ok(got), Ok((ocols, orows))) => got.columns == ocols && rows_eq(&got.rows, &orows),
                _ => false,
            };
            if !agree {
                checks.mismatch(format!("{}: hot+sealed differs from oracle", q.sql));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_query_parses_and_names_are_unique() {
        let specs = scan_series(true);
        let all = [
            scan_fused_queries(&specs[..4]),
            scan_decode_queries(&specs),
            dash_queries(&mixed_series(DASH_SERIES)),
        ];
        assert_eq!(all[0].len(), 20);
        assert_eq!(all[1].len(), 24);
        assert_eq!(all[2].len(), 144);
        for set in &all {
            let mut sqls: Vec<&str> = set.iter().map(|q| q.sql.as_str()).collect();
            sqls.sort_unstable();
            sqls.dedup();
            assert_eq!(sqls.len(), set.len(), "distinct queries");
        }
    }

    #[test]
    fn scan_fused_order_floods_the_partial_cache() {
        // Between two queries that share (series, function) lie at least
        // three other whole-series scans: > 8192 insertions.
        let specs = scan_series(false);
        let qs = scan_fused_queries(&specs);
        let key = |q: &Query| {
            let func = q.sql.split('(').next().unwrap().to_string();
            let series = q.sql.split(['(', ')']).nth(1).unwrap().to_string();
            (func, series)
        };
        let n = qs.len();
        for i in 0..n {
            for d in 1..=3 {
                assert_ne!(key(&qs[i]), key(&qs[(i + d) % n]), "queries {i} and +{d}");
            }
        }
    }

    #[test]
    fn trailing_quarter_starts_three_quarters_in() {
        let input = LiveInput {
            names: vec!["s0".into()],
            codecs: vec![Encoding::Ts2Diff],
            ts: vec![(0..100).map(|i| i * 10).collect()],
            vals: vec![vec![0; 100]],
        };
        assert_eq!(
            input.trailing_sql(0, 100, "SUM"),
            "SELECT SUM(s0) FROM s0 WHERE time >= 750"
        );
        // A prefix that does not divide by four still stays in range.
        assert!(input.trailing_sql(0, 1, "SUM").ends_with(">= 0"));
        assert!(input.trailing_sql(0, 7, "SUM").ends_with(">= 50"));
    }
}
