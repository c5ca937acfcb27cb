//! A float series over the wire: the service answers a float
//! `GROUP BY TIME` query with the very `Value::Float` bits the engine
//! gives when queried directly, NaN, ±0.0 and ±∞ included.

use std::sync::Arc;

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::plan::Value;
use etsqp_encoding::Encoding;
use etsqp_serve::client::{Client, Response};
use etsqp_serve::{server, ServeConfig};

fn bits(rows: &[Vec<Value>]) -> Vec<Vec<(u8, u64)>> {
    let bits = |v: &Value| match v {
        Value::Int(i) => (0, *i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Null => (2, 0),
    };
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

#[test]
fn float_group_by_time_answers_the_engines_bits() {
    let db = IotDb::new(EngineOptions::default().with_page_points(64));
    db.create_series_f64("f", Encoding::Chimp).unwrap();
    for i in 0..1_000i64 {
        let v = match i {
            7 => f64::NAN,
            300 => -0.0,
            301 => 0.0,
            640 => f64::INFINITY,
            _ => (i as f64 * 0.37).sin() * 40.0 + 0.1,
        };
        db.append_f64("f", i * 10, v).unwrap();
    }
    assert!(db.store().buffered_points("f").unwrap() > 0, "a hot tail");
    let db = Arc::new(db);
    let handle = server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut floats = 0;
    for func in [
        "SUM", "AVG", "MIN", "MAX", "VARIANCE", "FIRST", "DELTA", "P95",
    ] {
        let sql = format!("SELECT {func}(f) FROM f WHERE time >= 20 GROUP BY TIME(700)");
        let direct = db.query(&sql).unwrap();
        let Response::Rows(wire) = client.query(&sql).unwrap() else {
            panic!("{sql}: server error");
        };
        assert_eq!(bits(&wire.rows), bits(&direct.rows), "{sql}");
        floats += (direct.rows.iter().flatten())
            .filter(|v| matches!(v, Value::Float(_)))
            .count();
    }
    assert!(floats > 100, "only {floats} float cells crossed the wire");
    assert_eq!(handle.shutdown().proto_errors, 0);
}
