//! Float series through the one engine: `IotDb::{aggregate_f64,
//! scan_f64}` — shims over `execute` with a `FloatRange`'s key range —
//! and `plan::execute` for the statistics (pruned and loaded pages,
//! scanned tuples) a float query leaves.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::exec::StatsSnapshot;
use etsqp_core::expr::{AggFunc, Plan, Predicate, TimeRange};
use etsqp_core::float::FloatRange;
use etsqp_core::plan::{execute, PipelineConfig, Value};
use etsqp_core::Error;
use etsqp_encoding::Encoding;
use etsqp_storage::store::SeriesStore;

fn float_store(enc: Encoding) -> (SeriesStore, Vec<i64>, Vec<f64>) {
    let store = SeriesStore::new(256);
    store.create_series_f64("t", Encoding::Ts2Diff, enc);
    let ts: Vec<i64> = (0..3000).map(|i| i * 10).collect();
    let vals: Vec<f64> = (0..3000)
        .map(|i| 20.0 + (i as f64 * 0.01).sin() * 5.0)
        .collect();
    for (&t, &v) in ts.iter().zip(&vals) {
        store.append_f64("t", t, v).unwrap();
    }
    store.flush("t").unwrap();
    (store, ts, vals)
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 2,
        ..Default::default()
    }
}

/// The store behind the `IotDb` shims, under [`cfg`].
fn db(store: &SeriesStore) -> IotDb {
    let opts = EngineOptions {
        pipeline: cfg(),
        ..Default::default()
    };
    IotDb::with_store(store.clone(), opts)
}

/// `func` over series `t` under `pred`, through `execute`: the cell
/// and the run's statistics.
fn run(store: &SeriesStore, func: AggFunc, pred: Predicate) -> (Value, StatsSnapshot) {
    let plan = Plan::scan("t").filter(pred).aggregate(func);
    let r = execute(&plan, store, &cfg()).unwrap();
    (r.rows[0][0], r.stats)
}

#[test]
fn full_aggregate_matches_naive_for_all_float_codecs() {
    for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
        let (store, _, vals) = float_store(enc);
        let db = db(&store);
        let sum = db.aggregate_f64("t", None, None, AggFunc::Sum).unwrap();
        let want: f64 = vals.iter().sum();
        assert!((sum.unwrap() - want).abs() < 1e-6, "{}", enc.name());
        let (count, stats) = run(&store, AggFunc::Count, Predicate::default());
        assert_eq!(count, Value::Int(3000));
        assert_eq!(stats.tuples_scanned, 3000);
        let naive_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let min = db.aggregate_f64("t", None, None, AggFunc::Min).unwrap();
        assert_eq!(min.unwrap(), naive_min);
    }
}

#[test]
fn time_range_prunes_pages() {
    let (store, ts, vals) = float_store(Encoding::Chimp);
    let tr = TimeRange {
        lo: ts[1000],
        hi: ts[1999],
    };
    let sum = db(&store).aggregate_f64("t", Some(tr), None, AggFunc::Sum);
    let want: f64 = vals[1000..2000].iter().sum();
    assert!((sum.unwrap().unwrap() - want).abs() < 1e-6);
    let (count, stats) = run(&store, AggFunc::Count, Predicate::time(tr.lo, tr.hi));
    assert_eq!(count, Value::Int(1000));
    assert!(stats.pages_pruned > 0, "header pruning must fire");
}

#[test]
fn float_value_range_prunes_and_filters() {
    let (store, _, vals) = float_store(Encoding::GorillaFloat);
    let range = FloatRange { lo: 22.5, hi: 24.0 };
    let count = db(&store).aggregate_f64("t", None, Some(range), AggFunc::Count);
    let want_count = vals.iter().filter(|&&v| (22.5..=24.0).contains(&v)).count();
    assert_eq!(count.unwrap(), Some(want_count as f64));
    // Out-of-domain range prunes everything at the header level.
    let far = FloatRange {
        lo: 100.0,
        hi: 200.0,
    };
    let (count, stats) = run(&store, AggFunc::Count, far.predicate());
    assert_eq!(count, Value::Null, "no value qualifies");
    assert_eq!(stats.pages_loaded, 0, "all pages header-pruned");
}

#[test]
fn scan_returns_rows_in_order() {
    let (store, ts, vals) = float_store(Encoding::Elf);
    let (t2, v2) = db(&store).scan_f64("t", None).unwrap();
    assert_eq!(t2, ts);
    assert_eq!(v2.len(), vals.len());
    for (a, b) in v2.iter().zip(&vals) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn nan_values_never_match_ranges() {
    let store = SeriesStore::new(64);
    store.create_series_f64("n", Encoding::Ts2Diff, Encoding::Chimp);
    for i in 0..100i64 {
        let v = if i % 10 == 0 { f64::NAN } else { i as f64 };
        store.append_f64("n", i, v).unwrap();
    }
    store.flush("n").unwrap();
    let db = db(&store);
    let all = Some(FloatRange {
        lo: f64::MIN,
        hi: f64::MAX,
    });
    let agg = |func| db.aggregate_f64("n", None, all, func).unwrap().unwrap();
    assert_eq!(agg(AggFunc::Count), 90.0);
    assert!(agg(AggFunc::Sum).is_finite());
    // Unfiltered, MIN / MAX follow the keys' total order, in which a
    // positive NaN lies above +∞; SUM takes the NaN in.
    let whole = |func| db.aggregate_f64("n", None, None, func).unwrap().unwrap();
    assert_eq!(whole(AggFunc::Min), 1.0);
    assert!(whole(AggFunc::Max).is_nan());
    assert!(whole(AggFunc::Sum).is_nan());
    assert_eq!(whole(AggFunc::Count), 100.0);
}

#[test]
fn integer_series_rejected() {
    let store = SeriesStore::new(64);
    for (name, seal) in [("hot", false), ("sealed", true)] {
        store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append(name, 1, 1).unwrap();
        if seal {
            store.flush(name).unwrap();
        }
        let db = db(&store);
        let agg = db.aggregate_f64(name, None, None, AggFunc::Sum);
        assert!(matches!(agg, Err(Error::Plan(_))), "{name}: {agg:?}");
        let scan = db.scan_f64(name, None);
        assert!(matches!(scan, Err(Error::Plan(_))), "{name}: {scan:?}");
    }
}

#[test]
fn variance_matches_naive() {
    let (store, _, vals) = float_store(Encoding::Chimp);
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let want = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let var = db(&store).aggregate_f64("t", None, None, AggFunc::Variance);
    assert!((var.unwrap().unwrap() - want).abs() < 1e-6);
    let (var, _) = run(&store, AggFunc::Variance, Predicate::default());
    assert!((var.as_f64() - want).abs() < 1e-6);
}
