//! Live-ingestion query tests: `SELECT` must see data the moment it is
//! appended — no `flush` — and queries spanning hot + sealed data must
//! match the scalar oracle bit-for-bit, including while writers are
//! appending concurrently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, PairAggFunc, Plan, Predicate, TimeRange};
use etsqp_core::float::FloatRange;
use etsqp_core::oracle;
use etsqp_core::plan::{execute, PipelineConfig, Value};
use etsqp_encoding::Encoding;
use etsqp_storage::store::{SeriesStore, StoreOptions};

fn cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 4,
        ..Default::default()
    }
}

/// A store with sealed pages *and* a hot tail on two series: 1000 points
/// seal into pages of 128, the last 72 stay buffered (1000 % 128), so
/// every query below spans both halves.
fn live_store() -> SeriesStore {
    let store = SeriesStore::new(128);
    for (name, stride) in [("a", 3i64), ("b", 5i64)] {
        store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
        for i in 0..1000i64 {
            store.append(name, i * 2, (i * stride) % 101 - 50).unwrap();
        }
        assert!(store.buffered_points(name).unwrap() > 0, "hot tail exists");
    }
    store
}

/// The query sweep: unary aggregates (incl. order-sensitive FIRST/LAST),
/// filters that hit the hot chunk, windows, scans, and every binary
/// operator. All compared cell-for-cell against the oracle.
fn sweep() -> Vec<Plan> {
    let late = Predicate {
        // Only the hot tail: sealed data ends at ts 2*927=1854... the
        // last sealed point is i=927 (ts 1854); hot covers i=928..999.
        time: Some(TimeRange { lo: 1856, hi: 1998 }),
        value: None,
    };
    let valued = Predicate {
        time: None,
        value: Some((-20, 20)),
    };
    let mut plans = Vec::new();
    for func in [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
    ] {
        plans.push(Plan::scan("a").aggregate(func));
        plans.push(Plan::scan("a").filter(late).aggregate(func));
        plans.push(Plan::scan("a").filter(valued).aggregate(func));
    }
    plans.push(Plan::scan("a").window(0, 300, AggFunc::Sum));
    plans.push(Plan::scan("a").window(1800, 64, AggFunc::Count));
    plans.push(Plan::scan("a"));
    plans.push(Plan::scan("a").filter(late));
    plans.push(Plan::scan("a").filter(valued));
    plans.push(Plan::Union {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
    });
    plans.push(Plan::Join {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        on: None,
    });
    plans.push(Plan::JoinAggregate {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        func: PairAggFunc::Dot,
    });
    plans
}

fn assert_tables_equal(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) {
    let (ocols, orows) = oracle::execute(plan, store).unwrap();
    let got = execute(plan, store, cfg).unwrap();
    assert_eq!(ocols, got.columns, "{plan:?}");
    assert_eq!(orows.len(), got.rows.len(), "{plan:?}");
    for (i, (o, g)) in orows.iter().zip(&got.rows).enumerate() {
        // Bit-for-bit: Value::PartialEq compares f64 exactly, and NULLs
        // must agree too.
        assert_eq!(o, g, "{plan:?} row {i}");
    }
}

/// The acceptance-criteria differential: hot + sealed queries equal the
/// oracle bit-for-bit, across engine configurations.
#[test]
fn hot_plus_sealed_matches_oracle_bitwise() {
    let store = live_store();
    let configs = [
        cfg(),
        PipelineConfig {
            prune: false,
            ..cfg()
        },
        PipelineConfig {
            vectorized: false,
            threads: 1,
            ..cfg()
        },
    ];
    for c in &configs {
        for plan in sweep() {
            assert_tables_equal(&plan, &store, c);
        }
    }
}

/// A point is visible to `SELECT` the moment `append` returns.
#[test]
fn select_sees_unflushed_point_immediately() {
    let store = SeriesStore::new(1024);
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    let plan = Plan::scan("s").aggregate(AggFunc::Count);
    let r = execute(&plan, &store, &cfg()).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Null]], "empty series");
    store.append("s", 1, 42).unwrap();
    let r = execute(&plan, &store, &cfg()).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)]], "no flush needed");
    let rows = execute(&Plan::scan("s"), &store, &cfg()).unwrap().rows;
    assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(42)]]);
}

/// Hot-chunk pruning: a value filter outside the buffered min/max skips
/// the hot fold, charging its tuples as pruned.
#[test]
fn hot_chunk_prunes_on_exact_stats() {
    let store = SeriesStore::new(1024);
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    for i in 0..10i64 {
        store.append("s", i, i).unwrap(); // values 0..=9, all hot
    }
    let plan = Plan::scan("s")
        .filter(Predicate {
            time: None,
            value: Some((100, 200)),
        })
        .aggregate(AggFunc::Count);
    let r = execute(&plan, &store, &cfg()).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Null]]);
    assert_eq!(r.stats.tuples_pruned, 10, "hot tuples charged as pruned");
    assert_eq!(r.stats.tuples_scanned, 0);
}

/// EXPLAIN renders the hot-scan source — and only when hot data exists.
#[test]
fn explain_shows_hot_source() {
    let store = SeriesStore::new(1024);
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    for i in 0..7i64 {
        store.append("s", i, i).unwrap();
    }
    let plan = Plan::scan("s").aggregate(AggFunc::Sum);
    let text = etsqp_core::physical::pipe::compile(&plan, &store, &cfg())
        .unwrap()
        .render(&cfg());
    assert!(text.contains("hot (7 tuples): kept -> SourceHot"), "{text}");
    assert!(text.contains("PartialAgg[SUM]"), "{text}");
    store.flush("s").unwrap();
    let text = etsqp_core::physical::pipe::compile(&plan, &store, &cfg())
        .unwrap()
        .render(&cfg());
    assert!(
        !text.contains("SourceHot"),
        "flushed plans render as before"
    );
}

/// Float series: aggregates and scans see unflushed points too.
#[test]
fn float_queries_see_hot_points() {
    let store = SeriesStore::new(128);
    store.create_series_f64("f", Encoding::Ts2Diff, Encoding::Chimp);
    let mut want_sum = 0.0;
    for i in 0..300i64 {
        let v = (i as f64 * 0.37).sin() * 10.0;
        store.append_f64("f", i, v).unwrap();
        want_sum += v;
    }
    assert!(store.buffered_points("f").unwrap() > 0);
    let opts = EngineOptions {
        pipeline: cfg(),
        ..Default::default()
    };
    let db = IotDb::with_store(store.clone(), opts);
    let agg = |vrange, func| db.aggregate_f64("f", None, vrange, func).unwrap();
    assert_eq!(agg(None, AggFunc::Count), Some(300.0));
    assert!((agg(None, AggFunc::Sum).unwrap() - want_sum).abs() < 1e-9);
    let (ts, vals) = db.scan_f64("f", None).unwrap();
    assert_eq!(ts.len(), 300);
    assert_eq!(vals.len(), 300);
    assert!(ts.windows(2).all(|w| w[0] < w[1]), "time-ordered");
    // Value-filtered: hot rows obey the range filter like sealed ones.
    let range = Some(FloatRange { lo: 0.0, hi: 10.0 });
    let want = (0..300)
        .map(|i| (i as f64 * 0.37).sin() * 10.0)
        .filter(|v| (0.0..=10.0).contains(v))
        .count();
    assert_eq!(agg(range, AggFunc::Count), Some(want as f64));
    // The same hot chunk through SQL, and as the oracle reads it.
    for sql in ["SELECT SUM(f) FROM f", "SELECT * FROM f WHERE time >= 98"] {
        let plan = etsqp_core::sql::parse(sql).unwrap();
        let got = db.query(sql).unwrap();
        let (_, want) = oracle::execute(&plan, &store).unwrap();
        assert!(!want.is_empty() && want[0][want[0].len() - 1] != Value::Null);
        assert_eq!(format!("{:?}", got.rows), format!("{want:?}"), "{sql}");
    }
}

/// Concurrent append-while-query: 8 query threads hammer a series that a
/// writer is appending to. Every result must be a consistent prefix of
/// the append stream (the snapshot contract), and the final state must
/// match the oracle exactly.
#[test]
fn concurrent_append_while_query_is_prefix_consistent() {
    const TOTAL: i64 = 30_000;
    const QUERY_THREADS: usize = 8;
    let store = SeriesStore::with_options(StoreOptions {
        page_points: 256,
        shards: 16,
        seal_interval: None,
    });
    store.create_series("live", Encoding::Ts2Diff, Encoding::Ts2Diff);
    // value == 1 for every point, so for any prefix: SUM == COUNT, and
    // FIRST == LAST == 1. A torn (non-prefix) read breaks SUM == COUNT.
    let writer = {
        let store = store.clone();
        std::thread::spawn(move || {
            for i in 0..TOTAL {
                store.append("live", i, 1).unwrap();
            }
        })
    };
    let done = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..QUERY_THREADS)
        .map(|_| {
            let store = store.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let qcfg = PipelineConfig {
                    threads: 1,
                    ..Default::default()
                };
                let mut last_count = 0i64;
                let mut queries = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let sum = execute(&Plan::scan("live").aggregate(AggFunc::Sum), &store, &qcfg)
                        .unwrap()
                        .rows[0][0];
                    let count =
                        execute(&Plan::scan("live").aggregate(AggFunc::Count), &store, &qcfg)
                            .unwrap()
                            .rows[0][0];
                    let c = match count {
                        Value::Int(c) => c,
                        Value::Null => 0,
                        other => panic!("count: {other:?}"),
                    };
                    // COUNT ran after SUM, so its snapshot is a superset:
                    // sum <= count, and both are valid prefix sizes.
                    match sum {
                        Value::Int(s) => {
                            assert!(s <= c, "sum {s} > later count {c}: torn snapshot");
                            assert!(s >= last_count, "prefix went backwards");
                            last_count = s;
                        }
                        Value::Null => assert!(last_count == 0),
                        other => panic!("sum: {other:?}"),
                    }
                    assert!(c <= TOTAL);
                    queries += 1;
                }
                queries
            })
        })
        .collect();
    writer.join().unwrap();
    done.store(true, Ordering::Relaxed);
    let total_queries: u64 = queriers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total_queries > 0, "queriers made progress");

    // Quiesced: engine and oracle agree bit-for-bit on the final state,
    // which still has a hot tail (TOTAL % 256 != 0).
    assert!(store.buffered_points("live").unwrap() > 0);
    for plan in [
        Plan::scan("live").aggregate(AggFunc::Sum),
        Plan::scan("live").aggregate(AggFunc::Count),
        Plan::scan("live").aggregate(AggFunc::Last),
        Plan::scan("live").window(0, 1024, AggFunc::Count),
        Plan::scan("live"),
    ] {
        assert_tables_equal(&plan, &store, &cfg());
    }
}
