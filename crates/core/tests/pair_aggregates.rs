//! Tests for the §IV paired aggregates (Σ AᵢBᵢ, covariance, correlation):
//! SQL surface, agreement with naive math and with the oracle, saturation
//! included, under every codec and thread count.

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{PairAggFunc, Plan, Predicate};
use etsqp_core::oracle;
use etsqp_core::plan::{PipelineConfig, Value};
use etsqp_encoding::Encoding;

fn naive_corr(a: &[i64], b: &[i64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let cov = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - ma) * (y as f64 - mb))
        .sum::<f64>()
        / n;
    let va = a.iter().map(|&x| (x as f64 - ma).powi(2)).sum::<f64>() / n;
    let vb = b.iter().map(|&y| (y as f64 - mb).powi(2)).sum::<f64>() / n;
    cov / (va * vb).sqrt()
}

fn aligned_db(val_enc: Encoding) -> (IotDb, Vec<i64>, Vec<i64>) {
    let n = 8_000usize;
    let ts: Vec<i64> = (0..n as i64).map(|i| i * 100).collect();
    // Piecewise-linear signals (Delta-RLE friendly) with strong positive
    // dependence plus an anti-correlated remainder.
    let a: Vec<i64> = (0..n as i64).map(|i| 100 + (i / 50) * 3).collect();
    let b: Vec<i64> = (0..n as i64)
        .map(|i| 40 + (i / 50) * 7 - (i % 50) / 25)
        .collect();
    let db = IotDb::new(EngineOptions::default().with_encodings(Encoding::Ts2Diff, val_enc));
    db.create_series("a").unwrap();
    db.create_series("b").unwrap();
    db.append_all("a", &ts, &a).unwrap();
    db.append_all("b", &ts, &b).unwrap();
    db.flush().unwrap();
    (db, a, b)
}

#[test]
fn corr_sql_matches_naive() {
    let (db, a, b) = aligned_db(Encoding::Ts2Diff);
    let r = db.query("SELECT CORR(a, b) FROM a, b").unwrap();
    let Value::Float(got) = r.rows[0][0] else {
        panic!("{:?}", r.rows)
    };
    let want = naive_corr(&a, &b);
    assert!((got - want).abs() < 1e-9, "{got} vs {want}");
}

#[test]
fn dot_and_cov_match_naive() {
    let (db, a, b) = aligned_db(Encoding::Ts2Diff);
    let r = db.query("SELECT DOT(a, b) FROM a, b").unwrap();
    let want_dot: i128 = a.iter().zip(&b).map(|(&x, &y)| x as i128 * y as i128).sum();
    match r.rows[0][0] {
        Value::Int(v) => assert_eq!(v as i128, want_dot),
        Value::Float(v) => assert!((v - want_dot as f64).abs() < 1.0),
        Value::Null => panic!("null dot"),
    }
    let r = db.query("SELECT COV(a, b) FROM a, b").unwrap();
    let Value::Float(got) = r.rows[0][0] else {
        panic!()
    };
    let n = a.len() as f64;
    let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let want = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| (x as f64 - ma) * (y as f64 - mb))
        .sum::<f64>()
        / n;
    assert!((got - want).abs() < 1e-6, "{got} vs {want}");
}

#[test]
fn delta_rle_pair_agrees_with_filtered_pair_and_oracle() {
    // An unfiltered pair and one under a predicate every tuple passes
    // take the same merge join; both equal the oracle exactly.
    let (db, _, _) = aligned_db(Encoding::DeltaRle);
    let pair = |left: Plan| Plan::JoinAggregate {
        left: Box::new(left),
        right: Box::new(Plan::scan("b")),
        func: PairAggFunc::Correlation,
    };
    let all = Predicate::time(i64::MIN, i64::MAX);
    let (_, want) = oracle::execute(&pair(Plan::scan("a")), db.store()).unwrap();
    for left in [Plan::scan("a"), Plan::scan("a").filter(all)] {
        let got = db.execute(&pair(left)).unwrap();
        assert_eq!(got.rows, want);
    }
}

/// Two clock-aligned 40-point series in 20-point pages whose Σab
/// saturates `i128` upward on page 0 and comes back down on page 1.
fn saturating_pair(val_enc: Encoding) -> IotDb {
    let db = IotDb::new(
        EngineOptions::default()
            .with_encodings(Encoding::Ts2Diff, val_enc)
            .with_page_points(20),
    );
    let big = 3_000_000_000_000_000_000i64;
    let ts: Vec<i64> = (0..40).map(|i| i * 10).collect();
    let b: Vec<i64> = (0..40).map(|i| if i < 20 { big } else { -big }).collect();
    db.create_series("a").unwrap();
    db.create_series("b").unwrap();
    db.append_all("a", &ts, &[big; 40]).unwrap();
    db.append_all("b", &ts, &b).unwrap();
    db.flush().unwrap();
    db
}

#[test]
fn saturating_dot_is_the_oracles_under_every_codec_and_thread_count() {
    let plan = Plan::JoinAggregate {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        func: PairAggFunc::Dot,
    };
    let mut answers = Vec::new();
    for codec in [Encoding::DeltaRle, Encoding::Ts2Diff, Encoding::StreamVByte] {
        let db = saturating_pair(codec);
        let (_, want) = oracle::execute(&plan, db.store()).unwrap();
        for threads in [1, 2, 8] {
            let cfg = PipelineConfig {
                threads,
                ..Default::default()
            };
            let got = db.execute_with(&plan, &cfg).unwrap();
            assert_eq!(got.rows, want, "{codec:?} threads={threads}");
        }
        answers.push(want);
    }
    // One saturating push per pair, in time order: Σab pins at i128::MAX
    // on page 0, then page 1 subtracts from there.
    assert_eq!(answers[0], vec![vec![Value::Float(-9.858816539530768e36)]]);
    assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
}

#[test]
fn misaligned_clocks_fall_back_and_join_correctly() {
    let db =
        IotDb::new(EngineOptions::default().with_encodings(Encoding::Ts2Diff, Encoding::DeltaRle));
    db.create_series("a").unwrap();
    db.create_series("b").unwrap();
    for i in 0..2000i64 {
        db.append("a", i * 2, i % 100).unwrap(); // evens
        db.append("b", i * 3, (i * 2) % 100).unwrap(); // multiples of 3
    }
    db.flush().unwrap();
    let r = db.query("SELECT DOT(a, b) FROM a, b").unwrap();
    // Matches at multiples of 6: t = 6k → a index 3k, b index 2k.
    let mut want = 0i128;
    let mut k = 0i64;
    // a's clock (max t = 2*1999) is the binding bound; b reaches 3*1999.
    while 6 * k <= 2 * 1999 {
        let ai = 3 * k;
        let bi = 2 * k;
        if ai < 2000 && bi < 2000 {
            want += ((ai % 100) as i128) * (((bi * 2) % 100) as i128);
        }
        k += 1;
    }
    match r.rows[0][0] {
        Value::Int(v) => assert_eq!(v as i128, want),
        other => panic!("{other:?}"),
    }
}

#[test]
fn perfectly_correlated_series_give_one() {
    let db = IotDb::new(EngineOptions::default());
    db.create_series("x").unwrap();
    db.create_series("y").unwrap();
    for i in 0..1000i64 {
        db.append("x", i, i * 3 + 7).unwrap();
        db.append("y", i, i * 5 - 11).unwrap(); // affine of x → corr 1
    }
    db.flush().unwrap();
    let r = db.query("SELECT CORR(x, y) FROM x, y").unwrap();
    let Value::Float(c) = r.rows[0][0] else {
        panic!()
    };
    assert!((c - 1.0).abs() < 1e-9, "{c}");
}

#[test]
fn empty_join_yields_null() {
    let db = IotDb::new(EngineOptions::default());
    db.create_series("x").unwrap();
    db.create_series("y").unwrap();
    for i in 0..100i64 {
        db.append("x", i * 2, i).unwrap();
        db.append("y", i * 2 + 1, i).unwrap(); // disjoint clocks
    }
    db.flush().unwrap();
    let r = db.query("SELECT CORR(x, y) FROM x, y").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}
