//! Short-query throughput of the persistent work-stealing pool across
//! configured thread counts.
//!
//! Runs a batch of short selective aggregations (the high-QPS regime of
//! the ROADMAP north star) at 1/2/4/8 configured threads and reports
//! queries/second as JSON on stdout (redirected to `BENCH_pool.json` by
//! `scripts/bench.sh`). The fall from 1 to 8 configured threads on a
//! small host is the dispatch cost ROADMAP item 1 wants explained.
//!
//! Scale control: `ETSQP_BENCH_QUERIES` (default 1000) sets the batch
//! size per cell.

use std::time::Instant;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::plan::{execute, PipelineConfig};

const PAGE_POINTS: usize = 256;
const PAGES: usize = 64;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn build_db() -> IotDb {
    let opts = EngineOptions::default().with_page_points(PAGE_POINTS);
    let db = IotDb::new(opts);
    db.create_series("sensor").unwrap();
    let rows = (PAGE_POINTS * PAGES) as i64;
    for i in 0..rows {
        db.append("sensor", i * 1000, 60 + (i % 25) - (i % 7))
            .unwrap();
    }
    db.flush().unwrap();
    db
}

/// One short selective query, rotated over `k` so page pruning and the
/// aggregated window vary across the batch like independent clients.
fn query_plan(k: usize, rows: i64) -> Plan {
    let span = rows * 1000;
    let lo = (k as i64 * 37_000) % (span / 2);
    let hi = lo + span / 4;
    let func = match k % 4 {
        0 => AggFunc::Sum,
        1 => AggFunc::Count,
        2 => AggFunc::Min,
        _ => AggFunc::Max,
    };
    Plan::scan("sensor")
        .filter(Predicate::time(lo, hi))
        .aggregate(func)
}

/// Runs the batch at one configured thread count; returns queries/sec.
fn run_cell(db: &IotDb, threads: usize, queries: usize) -> f64 {
    let cfg = PipelineConfig {
        threads,
        ..db.options().pipeline
    };
    let rows = (PAGE_POINTS * PAGES) as i64;
    let start = Instant::now();
    for k in 0..queries {
        execute(&query_plan(k, rows), db.store(), &cfg).unwrap();
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let queries: usize = std::env::var("ETSQP_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let db = build_db();

    // Warm the pool (worker spawn, page cache) outside the timed region.
    run_cell(&db, 8, 16.min(queries));

    let mut cells = Vec::new();
    for &threads in &THREAD_COUNTS {
        let qps = run_cell(&db, threads, queries);
        eprintln!("threads={threads}: {qps:.0} q/s");
        cells.push(format!(
            "    {{\"threads\": {threads}, \"pool_qps\": {qps:.1}}}"
        ));
    }

    println!("{{");
    println!("  \"bench\": \"pool_short_queries\",");
    println!("  \"queries_per_cell\": {queries},");
    println!("  \"pages\": {PAGES},");
    println!("  \"page_points\": {PAGE_POINTS},");
    println!("  \"pool_threads\": {},", etsqp_core::pool::pool_threads());
    println!("  \"cells\": [");
    println!("{}", cells.join(",\n"));
    println!("  ]");
    println!("}}");
}
