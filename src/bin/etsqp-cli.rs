//! `etsqp-cli` — an interactive shell for ETSQP databases.
//!
//! ```sh
//! cargo run --release --bin etsqp-cli -- [--timeout-ms N] [file.etsqp]
//! ```
//!
//! `--timeout-ms N` applies a per-statement deadline: a query running
//! past it aborts at the next morsel boundary with a timeout error
//! instead of holding the shell. A database file that fails validation
//! (truncated, bit-flipped, hostile header) exits with status 3 so
//! scripts can tell corrupt input from usage errors.
//!
//! Commands:
//!
//! * any SQL statement (Table III dialect) — executed and printed;
//! * `EXPLAIN <sql>` — the compiled physical pipeline (per-page-group
//!   strategy, prune verdicts, merge partitions);
//! * `.load <path>` / `.save <path>` — TsFile persistence;
//! * `.gen <spec> <rows>` — ingest a synthetic Table II dataset
//!   (atm | clim | gas | time | sine | tpch);
//! * `.series` — list series with page/point counts;
//! * `.config [threads N] [prune on|off] [vectorized on|off]` — inspect /
//!   adjust the pipeline;
//! * `.stats` — I/O counters; `.help`; `.quit`.

use std::io::{BufRead, Write};
use std::path::Path;

use std::time::Duration;

use etsqp::core::cancel::CancellationToken;
use etsqp::core::plan::{PipelineConfig, QueryResult};
use etsqp::core::sql::{parse_statement, Statement};
use etsqp::core::Error;
use etsqp::datasets::Spec;
use etsqp::{EngineOptions, IotDb, Value};

/// Exit status for a database file rejected as corrupt — distinct from
/// the generic failure(1) so scripts can react to hostile input.
const EXIT_CORRUPT: i32 = 3;

fn main() {
    let mut db = IotDb::new(EngineOptions::default());
    let mut cfg = PipelineConfig::default();
    let mut timeout: Option<Duration> = None;
    println!(
        "ETSQP shell — SIMD backend: {} — .help for commands",
        etsqp::simd::backend()
    );

    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeout-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => timeout = Some(Duration::from_millis(ms)),
                None => {
                    eprintln!("usage: etsqp-cli [--timeout-ms N] [file.etsqp]");
                    std::process::exit(2);
                }
            },
            _ => file = Some(arg),
        }
    }
    if let Some(path) = file {
        match load(&path) {
            Ok(loaded) => {
                db = loaded;
                println!("loaded {}", path);
            }
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                if is_corrupt(e.as_ref()) {
                    std::process::exit(EXIT_CORRUPT);
                }
                std::process::exit(1);
            }
        }
    }

    let stdin = std::io::stdin();
    loop {
        print!("etsqp> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".explain ") {
            explain(&db, &cfg, rest);
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            if !dot_command(rest, &mut db, &mut cfg) {
                break;
            }
            continue;
        }
        run_sql(&db, &cfg, timeout, line);
    }
}

fn load(path: &str) -> Result<IotDb, Box<dyn std::error::Error>> {
    let store = etsqp::storage::tsfile::read(Path::new(path))?;
    Ok(IotDb::with_store(store, EngineOptions::default()))
}

/// Whether a load failure traces back to rejected (corrupt) input rather
/// than I/O or usage problems.
fn is_corrupt(mut e: &(dyn std::error::Error + 'static)) -> bool {
    loop {
        if let Some(s) = e.downcast_ref::<etsqp::storage::Error>() {
            return matches!(
                s,
                etsqp::storage::Error::Corrupt { .. } | etsqp::storage::Error::Encoding(_)
            );
        }
        if e.downcast_ref::<etsqp::encoding::Error>().is_some() {
            return true;
        }
        match e.source() {
            Some(src) => e = src,
            None => return false,
        }
    }
}

fn run_sql(db: &IotDb, cfg: &PipelineConfig, timeout: Option<Duration>, sql: &str) {
    let ctl = match timeout {
        Some(t) => CancellationToken::with_timeout(t),
        None => CancellationToken::none(),
    };
    match db.query_with(sql, cfg, &ctl) {
        Ok(QueryResult {
            explain: Some(text),
            ..
        }) => print!("{text}"),
        Ok(r) => {
            println!("{}", r.columns.join(" | "));
            let shown = r.rows.len().min(20);
            for row in &r.rows[..shown] {
                let cells: Vec<String> = row.iter().map(fmt_value).collect();
                println!("{}", cells.join(" | "));
            }
            if r.rows.len() > shown {
                println!("… {} more rows", r.rows.len() - shown);
            }
            println!(
                "({} rows in {:.3} ms; pages {}+{} pruned, tuples {}+{} pruned)",
                r.rows.len(),
                r.elapsed.as_secs_f64() * 1e3,
                r.stats.pages_loaded,
                r.stats.pages_pruned,
                r.stats.tuples_scanned,
                r.stats.tuples_pruned,
            );
        }
        Err(e @ Error::Sql(_)) => eprintln!("parse error: {e}"),
        Err(e) => eprintln!("error: {e}"),
    }
}

/// `.explain <sql>` — the compiled physical pipeline (the same rendering
/// as the SQL `EXPLAIN <query>` verb), followed by per-series storage
/// statistics from the page headers.
fn explain(db: &IotDb, cfg: &PipelineConfig, sql: &str) {
    match db.explain_with(sql, cfg) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            return;
        }
    }
    let Ok(Statement::Query(plan) | Statement::Explain(plan)) = parse_statement(sql) else {
        return;
    };
    for name in db.store().series_names() {
        if !format!("{plan:?}").contains(&format!("\"{name}\"")) {
            continue;
        }
        let Ok(pages) = db.store().peek_pages(&name) else {
            continue;
        };
        if pages.is_empty() {
            println!("  {name}: no pages");
            continue;
        }
        let h = &pages[0].header;
        let points: u64 = pages.iter().map(|p| p.header.count as u64).sum();
        let bytes: usize = pages.iter().map(|p| p.encoded_len()).sum();
        println!(
            "  {name}: {points} points, {} pages, {:.1} KB encoded, ts={}, val={}",
            pages.len(),
            bytes as f64 / 1e3,
            h.ts_encoding.name(),
            h.val_encoding.name(),
        );
        // `pages` is non-empty here (checked above), but a shell must
        // never panic on a display path — fall back to the first page's
        // header instead of unwrapping.
        println!(
            "    time range [{}, {}], value range [{}, {}]",
            h.first_ts,
            pages.last().map_or(h.last_ts, |p| p.header.last_ts),
            pages
                .iter()
                .map(|p| p.header.min_value)
                .min()
                .unwrap_or(h.min_value),
            pages
                .iter()
                .map(|p| p.header.max_value)
                .max()
                .unwrap_or(h.max_value),
        );
    }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:.4}"),
        Value::Null => "NULL".to_string(),
    }
}

/// Returns false to quit.
fn dot_command(rest: &str, db: &mut IotDb, cfg: &mut PipelineConfig) -> bool {
    let mut parts = rest.split_whitespace();
    match parts.next().unwrap_or("") {
        "quit" | "exit" | "q" => return false,
        "help" => {
            println!(".load <path> | .save <path> | .gen <spec> <rows> | .series");
            println!("EXPLAIN <sql> — render the compiled physical pipeline");
            println!(".explain <sql> — same, plus per-series storage statistics");
            println!(".config [threads N] [prune on|off] [vectorized on|off]");
            println!(".stats | .quit — anything else is parsed as SQL");
        }
        "load" => match parts.next() {
            Some(path) => match load(path) {
                Ok(loaded) => {
                    *db = loaded;
                    println!("loaded {path}");
                }
                Err(e) => eprintln!("cannot load: {e}"),
            },
            None => eprintln!("usage: .load <path>"),
        },
        "save" => match parts.next() {
            Some(path) => match etsqp::storage::tsfile::write(db.store(), Path::new(path)) {
                Ok(()) => println!("saved {path}"),
                Err(e) => eprintln!("cannot save: {e}"),
            },
            None => eprintln!("usage: .save <path>"),
        },
        "gen" => {
            let spec = match parts.next().map(str::to_ascii_lowercase).as_deref() {
                Some("atm") => Spec::Atmosphere,
                Some("clim") => Spec::Climate,
                Some("gas") => Spec::Gas,
                Some("time") => Spec::Timestamp,
                Some("sine") => Spec::Sine,
                Some("tpch") => Spec::Tpch,
                _ => {
                    eprintln!("usage: .gen <atm|clim|gas|time|sine|tpch> <rows>");
                    return true;
                }
            };
            let rows: usize = parts.next().and_then(|r| r.parse().ok()).unwrap_or(100_000);
            let d = spec.generate(rows);
            for (i, (name, col)) in d.columns.iter().enumerate() {
                let series = format!("{}_{name}", d.label.to_ascii_lowercase());
                db.create_series(&series).ok();
                if let Err(e) = db.append_all(&series, &d.timestamps, col) {
                    eprintln!("ingest {series}: {e}");
                }
                let _ = i;
            }
            db.flush().ok();
            println!(
                "generated {} ({} rows × {} attrs)",
                d.name,
                d.rows(),
                d.attrs()
            );
        }
        "series" => {
            for name in db.store().series_names() {
                let pages = db.store().page_count(&name).unwrap_or(0);
                let points = db.store().point_count(&name).unwrap_or(0);
                println!("{name}: {points} points in {pages} pages");
            }
        }
        "config" => {
            let mut args: Vec<&str> = parts.collect();
            while args.len() >= 2 {
                let (key, val) = (args[0], args[1]);
                args.drain(..2);
                match (key, val) {
                    ("threads", n) => {
                        if let Ok(n) = n.parse() {
                            cfg.threads = n;
                        }
                    }
                    ("prune", v) => cfg.prune = v == "on",
                    ("vectorized", v) => cfg.vectorized = v == "on",
                    other => eprintln!("unknown option {other:?}"),
                }
            }
            println!(
                "threads={} prune={} vectorized={}",
                cfg.threads, cfg.prune, cfg.vectorized
            );
        }
        "stats" => {
            let io = db.store().io();
            println!(
                "pages read: {}, bytes read: {}",
                io.pages_read(),
                io.bytes_read()
            );
        }
        other => eprintln!("unknown command .{other} (.help)"),
    }
    true
}
