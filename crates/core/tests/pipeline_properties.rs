//! Property tests for the whole pipeline: for arbitrary sensor-like
//! series, predicates and engine configurations, the vectorized / fused /
//! pruned / multi-threaded engine must agree exactly with a naive
//! in-memory evaluation.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::plan::{PipelineConfig, Value};
use etsqp_encoding::Encoding;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Series {
    ts: Vec<i64>,
    vals: Vec<i64>,
}

fn series_strategy() -> impl Strategy<Value = Series> {
    (
        1_000_000i64..2_000_000,
        proptest::collection::vec((1i64..5000, -3000i64..3000), 1..600),
    )
        .prop_map(|(t0, steps)| {
            let mut ts = Vec::with_capacity(steps.len());
            let mut vals = Vec::with_capacity(steps.len());
            let mut t = t0;
            let mut v = 0i64;
            for (dt, dv) in steps {
                t += dt;
                v += dv;
                ts.push(t);
                vals.push(v);
            }
            Series { ts, vals }
        })
}

fn naive(s: &Series, pred: &Predicate) -> (i128, u64, Option<i64>, Option<i64>) {
    let mut sum = 0i128;
    let mut count = 0u64;
    let mut mn = None;
    let mut mx = None;
    for (&t, &v) in s.ts.iter().zip(&s.vals) {
        if let Some(tr) = pred.time {
            if !tr.contains(t) {
                continue;
            }
        }
        if let Some((lo, hi)) = pred.value {
            if v < lo || v > hi {
                continue;
            }
        }
        sum += v as i128;
        count += 1;
        mn = Some(mn.map_or(v, |m: i64| m.min(v)));
        mx = Some(mx.map_or(v, |m: i64| m.max(v)));
    }
    (sum, count, mn, mx)
}

fn check_value(got: Value, want: Value, what: &str) -> Result<(), TestCaseError> {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => {
            prop_assert!(
                (a - b).abs() <= b.abs().max(1.0) * 1e-12,
                "{what}: {a} vs {b}"
            )
        }
        (a, b) => prop_assert_eq!(a, b, "{}", what),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_naive_for_arbitrary_series(
        s in series_strategy(),
        page_points in prop_oneof![Just(7usize), Just(64), Just(300), Just(1024)],
        enc_idx in 0usize..3,
        t_sel in 0.0f64..1.0,
        v_sel in 0.0f64..1.0,
        cfg_idx in 0usize..4,
    ) {
        let enc = [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::Sprintz][enc_idx];
        let db = IotDb::new(
            EngineOptions::default()
                .with_encodings(Encoding::Ts2Diff, enc)
                .with_page_points(page_points),
        );
        db.create_series("s").unwrap();
        db.append_all("s", &s.ts, &s.vals).unwrap();
        db.flush().unwrap();

        // Predicate derived from data quantiles.
        let t_lo = s.ts[((s.ts.len() - 1) as f64 * t_sel * 0.5) as usize];
        let t_hi = s.ts[((s.ts.len() - 1) as f64 * (0.5 + t_sel * 0.5)) as usize];
        let mut sorted = s.vals.clone();
        sorted.sort_unstable();
        let v_lo = sorted[((sorted.len() - 1) as f64 * v_sel * 0.5) as usize];
        let v_hi = sorted[((sorted.len() - 1) as f64 * (0.5 + v_sel * 0.5)) as usize];
        let pred = Predicate::time(t_lo, t_hi).and(&Predicate::value(v_lo, v_hi));

        let cfg = [
            PipelineConfig::default(),
            PipelineConfig { prune: false, ..Default::default() },
            PipelineConfig { threads: 1, ..Default::default() },
            PipelineConfig { threads: 7, ..Default::default() },
        ][cfg_idx];

        let (sum, count, mn, mx) = naive(&s, &pred);
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let plan = Plan::scan("s").filter(pred).aggregate(func);
            let r = db.execute_with(&plan, &cfg).unwrap();
            let got = r.rows[0][0];
            let want = if count == 0 {
                Value::Null
            } else {
                match func {
                    AggFunc::Sum => i64::try_from(sum).map(Value::Int).unwrap_or(Value::Float(sum as f64)),
                    AggFunc::Count => Value::Int(count as i64),
                    AggFunc::Min => Value::Int(mn.unwrap()),
                    AggFunc::Max => Value::Int(mx.unwrap()),
                    AggFunc::Avg => Value::Float(sum as f64 / count as f64),
                    _ => unreachable!("not exercised here"),
                }
            };
            check_value(got, want, &format!("{func:?} cfg{cfg_idx} enc{enc_idx}"))?;
        }
    }

    #[test]
    fn window_aggregation_matches_naive(
        s in series_strategy(),
        windows in 1i64..40,
        page_points in prop_oneof![Just(13usize), Just(128), Just(1024)],
    ) {
        let db = IotDb::new(EngineOptions::default().with_page_points(page_points));
        db.create_series("s").unwrap();
        db.append_all("s", &s.ts, &s.vals).unwrap();
        db.flush().unwrap();
        let span = s.ts.last().unwrap() - s.ts[0] + 1;
        let dt = (span / windows).max(1);
        let plan = Plan::scan("s").window(s.ts[0], dt, AggFunc::Sum);
        let r = db.execute(&plan).unwrap();

        let mut naive_map = std::collections::BTreeMap::new();
        for (&t, &v) in s.ts.iter().zip(&s.vals) {
            let k = (t - s.ts[0]) / dt;
            *naive_map.entry(s.ts[0] + k * dt).or_insert(0i128) += v as i128;
        }
        prop_assert_eq!(r.rows.len(), naive_map.len());
        for row in &r.rows {
            let Value::Int(start) = row[0] else { panic!() };
            let want = naive_map[&start];
            match row[1] {
                Value::Int(v) => prop_assert_eq!(v as i128, want),
                Value::Float(v) => prop_assert!((v - want as f64).abs() < 1.0),
                Value::Null => prop_assert_eq!(0, want),
            }
        }
    }

    #[test]
    fn sql_roundtrip_arbitrary_ranges(
        s in series_strategy(),
        lo in -5_000i64..5_000,
        len in 0i64..10_000,
    ) {
        let db = IotDb::new(EngineOptions::default());
        db.create_series("s").unwrap();
        db.append_all("s", &s.ts, &s.vals).unwrap();
        db.flush().unwrap();
        let hi = lo + len;
        let q = format!("SELECT COUNT(s) FROM s WHERE s >= {lo} AND s <= {hi}");
        let r = db.query(&q).unwrap();
        let want = s.vals.iter().filter(|&&v| v >= lo && v <= hi).count() as i64;
        let got = match r.rows[0][0] {
            Value::Int(v) => v,
            Value::Null => 0,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(got, want);
    }
}
