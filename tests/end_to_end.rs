//! Cross-crate integration tests: datasets → storage → engine → SQL,
//! and agreement between every engine configuration and every baseline.

use etsqp::core::plan::PipelineConfig;
use etsqp::datasets::Spec;
use etsqp::{AggFunc, Encoding, EngineOptions, IotDb, Plan, Predicate, Value};

/// Loads one dataset column into a fresh database.
fn load(spec: Spec, rows: usize, opts: EngineOptions) -> (IotDb, Vec<i64>, Vec<i64>) {
    let d = spec.generate(rows);
    let db = IotDb::new(opts);
    db.create_series("s").unwrap();
    db.append_all("s", &d.timestamps, &d.columns[0].1).unwrap();
    db.flush().unwrap();
    (db, d.timestamps, d.columns[0].1.clone())
}

#[test]
fn every_dataset_roundtrips_through_the_engine() {
    for spec in Spec::ALL {
        let (db, ts, vals) = load(spec, 20_000, EngineOptions::default());
        let r = db.query("SELECT SUM(s) FROM s").unwrap();
        let want: i128 = vals.iter().map(|&v| v as i128).sum();
        match r.rows[0][0] {
            Value::Int(got) => assert_eq!(got as i128, want, "{spec:?}"),
            Value::Float(got) => assert!((got - want as f64).abs() < 1.0, "{spec:?}"),
            Value::Null => panic!("{spec:?}: null sum"),
        }
        let r = db.query("SELECT COUNT(s) FROM s").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(ts.len() as i64), "{spec:?}");
    }
}

#[test]
fn engine_configs_agree_on_selective_aggregations() {
    let (db, ts, vals) = load(Spec::Gas, 30_000, EngineOptions::default());
    let mid = ts[ts.len() / 4];
    let hi = ts[3 * ts.len() / 4];
    let (vlo, vhi) = {
        let mut s = vals.clone();
        s.sort_unstable();
        (s[s.len() / 4], s[3 * s.len() / 4])
    };
    let plans = [
        Plan::scan("s").aggregate(AggFunc::Sum),
        Plan::scan("s")
            .filter(Predicate::time(mid, hi))
            .aggregate(AggFunc::Sum),
        Plan::scan("s")
            .filter(Predicate::value(vlo, vhi))
            .aggregate(AggFunc::Count),
        Plan::scan("s")
            .filter(Predicate::time(mid, hi).and(&Predicate::value(vlo, vhi)))
            .aggregate(AggFunc::Avg),
        Plan::scan("s").window(ts[0], (ts[ts.len() - 1] - ts[0]) / 37 + 1, AggFunc::Sum),
        Plan::scan("s").window(ts[0], (ts[ts.len() - 1] - ts[0]) / 11 + 1, AggFunc::Min),
    ];
    let configs = [
        PipelineConfig::default(),
        PipelineConfig {
            prune: false,
            ..Default::default()
        },
        PipelineConfig {
            partial_cache: false,
            ..Default::default()
        },
        PipelineConfig {
            prune: false,
            partial_cache: false,
            ..Default::default()
        },
        PipelineConfig {
            vectorized: false,
            threads: 1,
            prune: false,
            ..Default::default()
        },
        PipelineConfig {
            threads: 1,
            ..Default::default()
        },
        PipelineConfig {
            threads: 8,
            ..Default::default()
        },
    ];
    for (pi, plan) in plans.iter().enumerate() {
        let reference = db.execute_with(plan, &configs[0]).unwrap();
        for (ci, cfg) in configs.iter().enumerate().skip(1) {
            let got = db.execute_with(plan, cfg).unwrap();
            assert_eq!(reference.rows.len(), got.rows.len(), "plan {pi} cfg {ci}");
            for (a, b) in reference.rows.iter().zip(&got.rows) {
                for (x, y) in a.iter().zip(b) {
                    match (x, y) {
                        (Value::Float(p), Value::Float(q)) => {
                            assert!((p - q).abs() < 1e-6, "plan {pi} cfg {ci}: {p} vs {q}")
                        }
                        _ => assert_eq!(x, y, "plan {pi} cfg {ci}"),
                    }
                }
            }
        }
    }
}

#[test]
fn baselines_agree_with_engine() {
    let (db, ts, vals) = load(Spec::Sine, 50_000, EngineOptions::default());
    let t_lo = ts[ts.len() / 10];
    let t_hi = ts[9 * ts.len() / 10];
    let want: i128 = ts
        .iter()
        .zip(&vals)
        .filter(|(&t, _)| t >= t_lo && t <= t_hi)
        .map(|(_, &v)| v as i128)
        .sum();

    // ETSQP engine.
    let plan = Plan::scan("s")
        .filter(Predicate::time(t_lo, t_hi))
        .aggregate(AggFunc::Sum);
    let r = db.execute(&plan).unwrap();
    assert_eq!(r.rows[0][0].as_f64(), want as f64);

    // SBoost over the same pages.
    let sboost = etsqp::sboost::SboostEngine::from_store(db.store(), "s").unwrap();
    let (s, _) = sboost.sum_in_time_range(t_lo, t_hi, 4).unwrap();
    assert_eq!(s, want);

    // FastLanes over its own layout.
    let fl = etsqp::fastlanes::FlSeries::encode(&ts, &vals);
    let (s, _) = fl.sum_in_range(t_lo, t_hi, 4).unwrap();
    assert_eq!(s, want);

    // Comparator engines.
    let monet = etsqp::comparators::monet::MonetLike::load(&ts, &vals);
    assert_eq!(monet.sum_in_time_range(t_lo, t_hi).sum, want);
    let mut spark = etsqp::comparators::spark::SparkLike::load(&ts, &vals);
    spark.simulate_codegen = false;
    assert_eq!(spark.sum_in_time_range(t_lo, t_hi).sum, want);
}

#[test]
fn tsfile_persistence_roundtrip() {
    let (db, ts, _) = load(Spec::Atmosphere, 10_000, EngineOptions::default());
    // A float series rides along: its pages keep the ordered keys of
    // their min/max, and SQL answers from it the same after the reload.
    db.create_series_f64("f", Encoding::Elf).unwrap();
    for (i, &t) in ts.iter().enumerate() {
        let v = ((20.0 + (i as f64 * 0.01).sin() * 4.0) * 100.0).round() / 100.0;
        db.append_f64("f", t, v).unwrap();
    }
    db.flush().unwrap();
    let dir = std::env::temp_dir().join("etsqp_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.etsqp");
    etsqp::storage::tsfile::write(db.store(), &path).unwrap();

    let store2 = etsqp::storage::tsfile::read(&path).unwrap();
    let db2 = IotDb::with_store(store2, EngineOptions::default());
    let a = db.query("SELECT SUM(s) FROM s").unwrap();
    let b = db2.query("SELECT SUM(s) FROM s").unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(db2.store().point_count("s").unwrap(), ts.len() as u64);
    let bits = |rows: Vec<Vec<Value>>| -> Vec<Vec<u64>> {
        let bits = |v: &Value| match v {
            Value::Float(f) => f.to_bits(),
            other => other.as_f64().to_bits(),
        };
        rows.iter().map(|r| r.iter().map(bits).collect()).collect()
    };
    let mid = ts[ts.len() / 2];
    for sql in [
        "SELECT SUM(f) FROM f".to_string(),
        "SELECT VARIANCE(f) FROM f".to_string(),
        "SELECT MAX(f) FROM f".to_string(),
        format!("SELECT AVG(f) FROM f WHERE time >= {mid} GROUP BY TIME(60000)"),
        format!("SELECT * FROM f WHERE time >= {mid}"),
    ] {
        let (a, b) = (db.query(&sql).unwrap(), db2.query(&sql).unwrap());
        assert!(!a.rows.is_empty() && a.rows[0].iter().all(|v| *v != Value::Null));
        assert_eq!(bits(a.rows), bits(b.rows), "{sql}");
    }
    assert_eq!(db2.store().point_count("f").unwrap(), ts.len() as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_column_dataset_queries() {
    // Register every Gas column as its own series and join two of them.
    let d = Spec::Gas.generate(5_000);
    let db = IotDb::new(EngineOptions::default());
    for i in 0..4 {
        let name = format!("r{i}");
        db.create_series(&name).unwrap();
        db.append_all(&name, &d.timestamps, &d.columns[i].1)
            .unwrap();
    }
    db.flush().unwrap();
    let r = db.query("SELECT r0.A + r1.A FROM r0, r1").unwrap();
    assert_eq!(r.rows.len(), 5_000); // same clock → full join
    let Value::Int(first) = r.rows[0][1] else {
        panic!()
    };
    assert_eq!(first, d.columns[0].1[0] + d.columns[1].1[0]);
}

#[test]
fn sql_errors_are_clean() {
    let db = IotDb::new(EngineOptions::default());
    for bad in [
        "SELECT",
        "SELECT * FROM",
        "SELECT SUM(A) FROM missing_series",
        "SELECT SUM(A) FROM s SW(0, -5)",
    ] {
        assert!(db.query(bad).is_err(), "{bad:?} should fail");
    }
}

#[test]
fn delta_rle_encoded_store_full_pipeline() {
    // Value column stored Delta-RLE → DeltaRepeat fusion path end-to-end.
    let d = Spec::Climate.generate(20_000);
    let db =
        IotDb::new(EngineOptions::default().with_encodings(Encoding::Ts2Diff, Encoding::DeltaRle));
    db.create_series("rain").unwrap();
    db.append_all("rain", &d.timestamps, &d.columns[3].1)
        .unwrap();
    db.flush().unwrap();
    let r = db.query("SELECT VARIANCE(rain) FROM rain").unwrap();
    let Value::Float(var) = r.rows[0][0] else {
        panic!("{:?}", r.rows)
    };
    // Naive variance.
    let vals = &d.columns[3].1;
    let n = vals.len() as f64;
    let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / n;
    let want = vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    assert!((var - want).abs() / want.max(1.0) < 1e-9, "{var} vs {want}");
}
