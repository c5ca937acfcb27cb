//! End-to-end tests of the physical pipeline executor (formerly the
//! `plan.rs` unit-test battery, now driving the public API through the
//! Algorithm 2 compiler + driver).

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, BinOp, CmpOp, PairAggFunc, Plan, Predicate};
use etsqp_core::float::FloatRange;
use etsqp_core::plan::{execute, finalize, PipelineConfig, Value};
use etsqp_core::Error;
use etsqp_encoding::Encoding;
use etsqp_simd::agg::AggState;
use etsqp_storage::store::SeriesStore;

fn store_with(series: &str, ts: &[i64], vals: &[i64], page_points: usize) -> SeriesStore {
    let store = SeriesStore::new(page_points);
    store.create_series(series, Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.append_all(series, ts, vals).unwrap();
    store.flush(series).unwrap();
    store
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn whole_series_sum_matches_naive() {
    let ts: Vec<i64> = (0..5000).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..5000).map(|i| 100 + (i % 37)).collect();
    let store = store_with("s", &ts, &vals, 512);
    let plan = Plan::scan("s").aggregate(AggFunc::Sum);
    let r = execute(&plan, &store, &cfg()).unwrap();
    let want: i64 = vals.iter().sum();
    assert_eq!(r.rows, vec![vec![Value::Int(want)]]);
}

#[test]
fn all_agg_functions_match_naive() {
    let ts: Vec<i64> = (0..3000).map(|i| i * 5).collect();
    let vals: Vec<i64> = (0..3000).map(|i| (i * 7) % 113 - 50).collect();
    let store = store_with("s", &ts, &vals, 700);
    for func in [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
    ] {
        let plan = Plan::scan("s").aggregate(func);
        let r = execute(&plan, &store, &cfg()).unwrap();
        let got = r.rows[0][0];
        let mut naive = AggState::new();
        vals.iter().for_each(|&v| naive.push(v));
        let want = finalize(func, &naive.into());
        match (got, want) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-9, "{func:?}"),
            (a, b) => assert_eq!(a, b, "{func:?}"),
        }
    }
}

#[test]
fn time_filter_matches_naive() {
    let ts: Vec<i64> = (0..4000).map(|i| 1_000_000 + i * 100).collect();
    let vals: Vec<i64> = (0..4000).map(|i| i % 500).collect();
    let store = store_with("s", &ts, &vals, 512);
    let pred = Predicate::time(1_050_000, 1_250_000);
    let plan = Plan::scan("s").filter(pred).aggregate(AggFunc::Sum);
    let r = execute(&plan, &store, &cfg()).unwrap();
    let want: i64 = ts
        .iter()
        .zip(&vals)
        .filter(|(&t, _)| (1_050_000..=1_250_000).contains(&t))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(r.rows[0][0], Value::Int(want));
    // Pruning must have skipped out-of-range pages.
    assert!(r.stats.pages_pruned > 0);
}

#[test]
fn value_filter_matches_naive() {
    let ts: Vec<i64> = (0..3000).collect();
    let vals: Vec<i64> = (0..3000).map(|i| (i * 31) % 1000).collect();
    let store = store_with("s", &ts, &vals, 512);
    let plan = Plan::scan("s")
        .filter(Predicate::value(500, i64::MAX))
        .aggregate(AggFunc::Count);
    let r = execute(&plan, &store, &cfg()).unwrap();
    let want = vals.iter().filter(|&&v| v >= 500).count() as i64;
    assert_eq!(r.rows[0][0], Value::Int(want));
}

#[test]
fn window_aggregate_matches_naive() {
    let ts: Vec<i64> = (0..2000).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..2000).map(|i| i % 91).collect();
    let store = store_with("s", &ts, &vals, 333);
    let plan = Plan::scan("s").window(0, 2500, AggFunc::Sum);
    let r = execute(&plan, &store, &cfg()).unwrap();
    // Naive windows.
    let mut naive: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for (&t, &v) in ts.iter().zip(&vals) {
        *naive.entry((t / 2500) * 2500).or_default() += v;
    }
    assert_eq!(r.rows.len(), naive.len());
    for row in &r.rows {
        let (Value::Int(start), Value::Int(sum)) = (row[0], row[1]) else {
            panic!("bad row {row:?}")
        };
        assert_eq!(naive[&start], sum, "window {start}");
    }
}

#[test]
fn serial_and_vectorized_agree() {
    let ts: Vec<i64> = (0..2500).map(|i| i * 7).collect();
    let vals: Vec<i64> = (0..2500).map(|i| (i % 301) - 150).collect();
    let store = store_with("s", &ts, &vals, 400);
    let plan = Plan::scan("s")
        .filter(Predicate::time(1000, 12_000).and(&Predicate::value(-100, 100)))
        .aggregate(AggFunc::Sum);
    let fast = execute(&plan, &store, &cfg()).unwrap();
    let serial_cfg = PipelineConfig {
        vectorized: false,
        threads: 1,
        prune: false,
        ..Default::default()
    };
    let slow = execute(&plan, &store, &serial_cfg).unwrap();
    assert_eq!(fast.rows, slow.rows);
}

#[test]
fn union_and_join_match_naive() {
    let t1: Vec<i64> = (0..100).map(|i| i * 2).collect(); // evens
    let v1: Vec<i64> = (0..100).collect();
    let t2: Vec<i64> = (0..100).map(|i| i * 3).collect(); // multiples of 3
    let v2: Vec<i64> = (0..100).map(|i| 1000 + i).collect();
    let store = SeriesStore::new(64);
    store.create_series("a", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.create_series("b", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.append_all("a", &t1, &v1).unwrap();
    store.append_all("b", &t2, &v2).unwrap();
    store.flush("a").unwrap();
    store.flush("b").unwrap();

    let union = Plan::Union {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
    };
    let r = execute(&union, &store, &cfg()).unwrap();
    assert_eq!(r.rows.len(), 200);
    // Sorted by time.
    let times: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(t) => t,
            _ => panic!(),
        })
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));

    let join = Plan::Join {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        on: None,
    };
    let r = execute(&join, &store, &cfg()).unwrap();
    // Equal timestamps: multiples of 6 below 198 and below 297 → 0,6,...,198.
    let want = t1.iter().filter(|t| t2.contains(t)).count();
    assert_eq!(r.rows.len(), want);

    let jexpr = Plan::JoinExpr {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        op: BinOp::Add,
    };
    let r = execute(&jexpr, &store, &cfg()).unwrap();
    assert_eq!(r.rows.len(), want);
    // Row 0: t=0, a=0, b=1000 → 1000.
    assert_eq!(r.rows[0], vec![Value::Int(0), Value::Int(1000)]);
}

#[test]
fn empty_result_yields_null() {
    let ts: Vec<i64> = (0..100).collect();
    let vals = ts.clone();
    let store = store_with("s", &ts, &vals, 50);
    let plan = Plan::scan("s")
        .filter(Predicate::time(10_000, 20_000))
        .aggregate(AggFunc::Sum);
    let r = execute(&plan, &store, &cfg()).unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}

#[test]
fn first_last_aggregates_match_naive() {
    let ts: Vec<i64> = (0..3000).map(|i| i * 5).collect();
    let vals: Vec<i64> = (0..3000).map(|i| (i * 37) % 1009 - 200).collect();
    let store = store_with("s", &ts, &vals, 256);
    // Whole series, on one thread and on many.
    for threads in [1usize, 8] {
        let c = PipelineConfig { threads, ..cfg() };
        let first = execute(&Plan::scan("s").aggregate(AggFunc::First), &store, &c).unwrap();
        let last = execute(&Plan::scan("s").aggregate(AggFunc::Last), &store, &c).unwrap();
        assert_eq!(first.rows[0][0], Value::Int(vals[0]), "threads {threads}");
        assert_eq!(
            last.rows[0][0],
            Value::Int(*vals.last().unwrap()),
            "threads {threads}"
        );
    }
    // With a time filter.
    let pred = Predicate::time(ts[100], ts[2000]);
    let r = execute(
        &Plan::scan("s").filter(pred).aggregate(AggFunc::First),
        &store,
        &cfg(),
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(vals[100]));
    // With a value filter (first qualifying value).
    let pred = Predicate::value(500, i64::MAX);
    let want = *vals.iter().find(|&&v| v >= 500).unwrap();
    let r = execute(
        &Plan::scan("s").filter(pred).aggregate(AggFunc::First),
        &store,
        &cfg(),
    )
    .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(want));
    // Windowed LAST: one row per window, each the window's last value.
    let r = execute(
        &Plan::scan("s").window(0, 2500, AggFunc::Last),
        &store,
        &cfg(),
    )
    .unwrap();
    for row in &r.rows {
        let (Value::Int(start), Value::Int(got)) = (row[0], row[1]) else {
            panic!()
        };
        let want = ts
            .iter()
            .zip(&vals)
            .filter(|(&t, _)| t >= start && t < start + 2500)
            .map(|(_, &v)| v)
            .next_back()
            .unwrap();
        assert_eq!(got, want, "window {start}");
    }
    // Serial engine agrees.
    let serial = PipelineConfig {
        vectorized: false,
        threads: 1,
        prune: false,
        ..cfg()
    };
    let a = execute(&Plan::scan("s").aggregate(AggFunc::Last), &store, &serial).unwrap();
    let b = execute(&Plan::scan("s").aggregate(AggFunc::Last), &store, &cfg()).unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn inter_column_join_predicate_filters_rows() {
    let t: Vec<i64> = (0..500).collect();
    let a: Vec<i64> = (0..500).map(|i| i % 100).collect();
    let b: Vec<i64> = (0..500).map(|_| 50).collect();
    let store = SeriesStore::new(128);
    store.create_series("a", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.create_series("b", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.append_all("a", &t, &a).unwrap();
    store.append_all("b", &t, &b).unwrap();
    store.flush("a").unwrap();
    store.flush("b").unwrap();
    for (op, want) in [
        (CmpOp::Gt, a.iter().filter(|&&v| v > 50).count()),
        (CmpOp::Le, a.iter().filter(|&&v| v <= 50).count()),
        (CmpOp::Eq, a.iter().filter(|&&v| v == 50).count()),
    ] {
        let plan = Plan::Join {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
            on: Some(op),
        };
        let r = execute(&plan, &store, &cfg()).unwrap();
        assert_eq!(r.rows.len(), want, "{op:?}");
    }
}

#[test]
fn partitioned_merge_agrees_with_single_thread() {
    // Figure 9 merge nodes: many partitions must produce exactly the
    // sequential result for every binary operator, including on
    // misaligned clocks with filters.
    let t1: Vec<i64> = (0..3000).map(|i| i * 2).collect();
    let v1: Vec<i64> = (0..3000).map(|i| i % 251).collect();
    let t2: Vec<i64> = (0..3000).map(|i| i * 3 + 1).collect();
    let v2: Vec<i64> = (0..3000).map(|i| 500 - i % 100).collect();
    let store = SeriesStore::new(200);
    store.create_series("a", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.create_series("b", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.append_all("a", &t1, &v1).unwrap();
    store.append_all("b", &t2, &v2).unwrap();
    store.flush("a").unwrap();
    store.flush("b").unwrap();
    let pred = Predicate::time(1000, 8000);
    for plan in [
        Plan::Union {
            left: Box::new(Plan::scan("a").filter(pred)),
            right: Box::new(Plan::scan("b")),
        },
        Plan::Join {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
            on: None,
        },
        Plan::JoinExpr {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b").filter(pred)),
            op: BinOp::Mul,
        },
    ] {
        let sequential = execute(
            &plan,
            &store,
            &PipelineConfig {
                threads: 1,
                ..cfg()
            },
        )
        .unwrap();
        for threads in [2usize, 5, 16] {
            let parallel = execute(&plan, &store, &PipelineConfig { threads, ..cfg() }).unwrap();
            assert_eq!(
                parallel.rows, sequential.rows,
                "threads {threads} plan {plan:?}"
            );
        }
    }
}

#[test]
fn stream_vbyte_whole_page_sums_run_the_cursor() {
    let ts: Vec<i64> = (0..2048).collect();
    let vals: Vec<i64> = (0..2048)
        .map(|i| 900 + (i * 13) % 512 - (i % 7) * 40)
        .collect();
    let store = SeriesStore::new(512);
    store.create_series("s", Encoding::Ts2Diff, Encoding::StreamVByte);
    store.append_all("s", &ts, &vals).unwrap();
    store.flush("s").unwrap();
    let config = cfg();
    // SUM/AVG/COUNT run the decode-and-fold cursor, which is the §IV
    // Delta fusion; the plan says so, and no value is materialized.
    let plan = Plan::scan("s").aggregate(AggFunc::Sum);
    let rendered = etsqp_core::physical::pipe::compile(&plan, &store, &config)
        .unwrap()
        .render(&config);
    assert!(
        rendered.contains("DecodeScan -> Filter[none] -> PartialAgg[SUM]"),
        "plan was:\n{rendered}"
    );
    for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count] {
        let plan = Plan::scan("s").aggregate(func);
        let r = execute(&plan, &store, &config).unwrap();
        assert_eq!(r.stats.materialized_bytes, 0, "{func:?}");
        let mut naive = AggState::new();
        vals.iter().for_each(|&v| naive.push(v));
        let want = finalize(func, &naive.into());
        match (r.rows[0][0], want) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-9, "{func:?}"),
            (a, b) => assert_eq!(a, b, "{func:?}"),
        }
    }
    // A partial time range re-checks at run time and falls back to decode
    // on the straddled page — results must agree with the naive oracle.
    let pred = Predicate::time(100, 1500);
    let plan = Plan::scan("s").filter(pred).aggregate(AggFunc::Sum);
    let r = execute(&plan, &store, &config).unwrap();
    let want: i64 = ts
        .iter()
        .zip(&vals)
        .filter(|(&t, _)| (100..=1500).contains(&t))
        .map(|(_, &v)| v)
        .sum();
    assert_eq!(r.rows[0][0], Value::Int(want));
}

#[test]
fn delta_rle_values_use_full_fusion() {
    let ts: Vec<i64> = (0..2048).collect();
    let vals: Vec<i64> = (0..2048).map(|i| 5 + (i / 100)).collect(); // long runs
    let store = SeriesStore::new(1024);
    store.create_series("s", Encoding::Ts2Diff, Encoding::DeltaRle);
    store.append_all("s", &ts, &vals).unwrap();
    store.flush("s").unwrap();
    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Variance] {
        let plan = Plan::scan("s").aggregate(func);
        let r = execute(&plan, &store, &cfg()).unwrap();
        let mut naive = AggState::new();
        vals.iter().for_each(|&v| naive.push(v));
        let want = finalize(func, &naive.into());
        match (r.rows[0][0], want) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-9, "{func:?}"),
            (a, b) => assert_eq!(a, b, "{func:?}"),
        }
    }
}

/// A float series with 101.5 as its largest value: 100 points at
/// `page_points` 64, flushed (`sealed`) or left in the hot chunk.
fn float_db(sealed: bool) -> IotDb {
    let db = IotDb::new(EngineOptions::default().with_page_points(if sealed { 64 } else { 1024 }));
    db.create_series_f64("f", Encoding::Chimp).unwrap();
    for i in 0..100i64 {
        let v = 2.0 + i as f64 + if i == 99 { 0.5 } else { 0.0 };
        db.append_f64("f", i, v).unwrap();
    }
    if sealed {
        db.flush().unwrap();
    }
    db
}

/// SQL over a float series answers in floats, hot or sealed: SUM and MAX
/// are the values' (not `Null`, not an ordered key, not a "float codec
/// dispatched as integer column" error), and `SELECT *` returns the rows.
#[test]
fn sql_over_a_float_series_answers_in_floats() {
    for sealed in [false, true] {
        let db = float_db(sealed);
        assert_eq!(
            db.store().buffered_points("f").unwrap() == 0,
            sealed,
            "sealed={sealed}"
        );
        let cell = |sql: &str| db.query(sql).unwrap().rows[0][0];
        let want_sum: f64 = (0..100).map(|i| 2.0 + i as f64).sum::<f64>() + 0.5;
        assert_eq!(cell("SELECT SUM(f) FROM f"), Value::Float(want_sum));
        assert_eq!(cell("SELECT MAX(f) FROM f"), Value::Float(101.5));
        assert_eq!(cell("SELECT MIN(f) FROM f"), Value::Float(2.0));
        assert_eq!(cell("SELECT COUNT(f) FROM f"), Value::Int(100));
        let rows = db.query("SELECT * FROM f WHERE time >= 98").unwrap().rows;
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(98), Value::Float(100.0)],
                vec![Value::Int(99), Value::Float(101.5)],
            ],
            "sealed={sealed}"
        );
    }
}

/// `FloatRange` bounds at ±0.0 select what IEEE `>=` / `<=` select, and
/// pruning agrees with the filter: −0.0 lies in `[0.0, 10.0]` and +0.0 in
/// `[-10.0, -0.0]` whether or not the page holding it is judged by its
/// header first.
#[test]
fn signed_zero_bounds_agree_with_and_without_pruning() {
    let store = SeriesStore::new(4);
    store.create_series_f64("z", Encoding::Ts2Diff, Encoding::GorillaFloat);
    let vals = [
        -3.0, -2.0, -1.0, -0.0, // page 0: max is −0.0
        0.0, 1.0, 2.0, 3.0, // page 1: min is +0.0
        4.0, 5.0, 6.0, 7.0,
    ];
    for (i, &v) in vals.iter().enumerate() {
        store.append_f64("z", i as i64, v).unwrap();
    }
    store.flush("z").unwrap();
    for (lo, hi, want) in [
        (0.0, 10.0, 9),
        (-0.0, 10.0, 9),
        (-10.0, -0.0, 5),
        (-10.0, 0.0, 5),
        (0.0, -0.0, 2),
    ] {
        let want_ieee = vals.iter().filter(|&&v| v >= lo && v <= hi).count();
        assert_eq!(want, want_ieee);
        let range = FloatRange { lo, hi };
        let plan = Plan::scan("z")
            .filter(range.predicate())
            .aggregate(AggFunc::Count);
        for prune in [true, false] {
            for vectorized in [true, false] {
                let config = PipelineConfig {
                    prune,
                    vectorized,
                    ..cfg()
                };
                let r = execute(&plan, &store, &config).unwrap();
                let label = format!("[{lo:?}, {hi:?}] prune={prune} vectorized={vectorized}");
                assert_eq!(r.rows[0][0], Value::Int(want as i64), "{label}");
                let opts = EngineOptions {
                    pipeline: config,
                    ..Default::default()
                };
                let db = IotDb::with_store(store.clone(), opts);
                let count = db.aggregate_f64("z", None, Some(range), AggFunc::Count);
                assert_eq!(count.unwrap(), Some(want as f64), "{label}");
            }
        }
    }
}

/// What a float series cannot take is a typed plan error, hot or sealed:
/// an integer literal bounding its values in SQL (queried or explained),
/// and a float side of any binary operator.
#[test]
fn float_value_literals_and_binary_operators_are_plan_errors() {
    for sealed in [false, true] {
        let db = float_db(sealed);
        db.create_series("i").unwrap();
        for t in 0..100i64 {
            db.append("i", t, t * 3).unwrap();
        }
        let plan_err = |r: Result<String, Error>, what: &str| {
            assert!(
                matches!(r, Err(Error::Plan(_))),
                "{what} sealed={sealed}: {r:?}"
            );
        };
        for sql in [
            "SELECT SUM(f) FROM f WHERE f > 20",
            "SELECT * FROM f WHERE f >= 3 AND time >= 5",
            "SELECT COUNT(f) FROM (SELECT * FROM f WHERE f < 7) GROUP BY TIME(10)",
            "EXPLAIN SELECT MAX(f) FROM f WHERE f > 1",
        ] {
            plan_err(db.query(sql).map(|r| format!("{:?}", r.rows)), sql);
            plan_err(db.explain(sql), sql);
        }
        // Time filters stay fine in SQL.
        assert!(db.query("SELECT SUM(f) FROM f WHERE time >= 5").is_ok());
        for (left, right) in [("f", "i"), ("i", "f")] {
            let (l, r) = (Box::new(Plan::scan(left)), Box::new(Plan::scan(right)));
            let plans = [
                Plan::Union {
                    left: l.clone(),
                    right: r.clone(),
                },
                Plan::Join {
                    left: l.clone(),
                    right: r.clone(),
                    on: Some(CmpOp::Lt),
                },
                Plan::JoinExpr {
                    left: l.clone(),
                    right: r.clone(),
                    op: BinOp::Add,
                },
                Plan::JoinAggregate {
                    left: l,
                    right: r,
                    func: PairAggFunc::Dot,
                },
            ];
            for plan in plans {
                let what = format!("{plan:?}");
                plan_err(db.execute(&plan).map(|r| format!("{:?}", r.rows)), &what);
            }
        }
    }
}
