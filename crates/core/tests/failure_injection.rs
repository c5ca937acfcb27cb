//! Failure injection: corrupted pages, hostile SQL, and overflow inputs
//! must produce clean errors or widened results — never panics or wrong
//! answers (paper §VI-C, "Behavior on failures").

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan};
use etsqp_core::plan::Value;
use etsqp_encoding::Encoding;
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;
use proptest::prelude::*;

fn db_with_corrupt_value_page() -> IotDb {
    let store = SeriesStore::new(1024);
    let ts: Vec<i64> = (0..100).collect();
    let vals: Vec<i64> = (0..100).collect();
    let good = Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap();
    // Corrupt: truncate the value payload but keep the header claiming
    // 100 tuples.
    // The stale checksum models real corruption: nothing reseals it.
    let bad = Page {
        header: good.header,
        ts_bytes: good.ts_bytes.clone(),
        val_bytes: good.val_bytes.slice(0..good.val_bytes.len() / 2),
        checksum: good.checksum,
    };
    store.insert_pages("s", vec![bad]);
    IotDb::with_store(store, EngineOptions::default())
}

#[test]
fn corrupt_page_yields_error_not_panic() {
    let db = db_with_corrupt_value_page();
    let plan = Plan::scan("s").aggregate(AggFunc::Sum);
    assert!(db.execute(&plan).is_err());
    // Row scans hit the same corruption.
    assert!(db.query("SELECT * FROM s").is_err());
}

#[test]
fn corrupt_header_encoding_tag_detected() {
    let store = SeriesStore::new(64);
    let ts: Vec<i64> = (0..10).collect();
    let good = Page::encode(&ts, &ts, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap();
    let mut image = good.to_bytes();
    image[36] = 250; // invalid ts-encoding tag
    assert!(Page::from_bytes(&image).is_err());
    let _ = store;
}

#[test]
fn sum_overflow_widens_to_float() {
    // Values near i64::MAX: the exact i128 sum exceeds i64 → the result
    // must widen to Float (§VI-C: aggregate with a larger quantity).
    let db = IotDb::new(EngineOptions::default());
    db.create_series("s").unwrap();
    let big = i64::MAX / 2;
    for i in 0..8i64 {
        db.append("s", i, big).unwrap();
    }
    db.flush().unwrap();
    let r = db.query("SELECT SUM(s) FROM s").unwrap();
    match r.rows[0][0] {
        Value::Float(f) => {
            let want = big as f64 * 8.0;
            assert!((f - want).abs() / want < 1e-9, "{f} vs {want}");
        }
        other => panic!("expected widened float, got {other:?}"),
    }
    // AVG stays finite and exact-ish.
    let r = db.query("SELECT AVG(s) FROM s").unwrap();
    match r.rows[0][0] {
        Value::Float(f) => assert!((f - big as f64).abs() / (big as f64) < 1e-9),
        other => panic!("{other:?}"),
    }
}

#[test]
fn serial_engine_handles_overflow_identically() {
    let mk = |opts| {
        let db = IotDb::new(opts);
        db.create_series("s").unwrap();
        for i in 0..6i64 {
            db.append("s", i, i64::MIN / 3).unwrap();
        }
        db.flush().unwrap();
        db.query("SELECT SUM(s) FROM s").unwrap().rows[0][0]
    };
    let fast = mk(EngineOptions::etsqp());
    let serial = mk(EngineOptions::serial());
    match (fast, serial) {
        (Value::Float(a), Value::Float(b)) => assert_eq!(a, b),
        (a, b) => assert_eq!(a, b),
    }
}

/// Pruned pages are checksum-verified by the jobs of the kept pages, an
/// equal share each (all of them inline when nothing is kept): wherever
/// a corrupt page falls — before the first kept page, between kept
/// pages, after the last, or kept itself — the query must abort, at any
/// thread count, sliced or not.
#[test]
fn every_pruned_page_is_verified_wherever_its_run_lands() {
    use etsqp_core::expr::Predicate;
    use etsqp_core::plan::{execute, PipelineConfig};
    use etsqp_storage::Bytes;

    const POINTS: i64 = 64;
    // Page p holds values 100·LEVEL[p] + 0..63: the band keeps 2, 3, 5.
    const LEVEL: [i64; 8] = [0, 5, 1, 1, 7, 1, 9, 3];
    let build = || {
        let store = SeriesStore::new(POINTS as usize);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        for (p, level) in LEVEL.iter().enumerate() {
            for i in 0..POINTS {
                store
                    .append("s", p as i64 * POINTS + i, 100 * level + i)
                    .unwrap();
            }
        }
        store.flush("s").unwrap();
        store
    };
    let band = Plan::scan("s")
        .filter(Predicate::value(100, 163))
        .aggregate(AggFunc::Sum);
    let nothing = Plan::scan("s")
        .filter(Predicate::value(5_000, 6_000))
        .aggregate(AggFunc::Sum);
    let configs: Vec<PipelineConfig> = [(1, false), (2, true), (4, false), (8, true)]
        .into_iter()
        .map(|(threads, allow_slicing)| PipelineConfig {
            threads,
            allow_slicing,
            partial_cache: false,
            ..Default::default()
        })
        .collect();

    let clean = build();
    for cfg in &configs {
        let got = execute(&band, &clean, cfg).unwrap();
        let per_page: i64 = (0..POINTS).map(|i| 100 + i).sum();
        assert_eq!(got.rows, vec![vec![Value::Int(3 * per_page)]]);
        assert_eq!((got.stats.pages_loaded, got.stats.pages_pruned), (3, 5));
        let got = execute(&nothing, &clean, cfg).unwrap();
        assert_eq!(got.rows, vec![vec![Value::Null]]);
        assert_eq!((got.stats.pages_loaded, got.stats.pages_pruned), (0, 8));
    }
    for corrupt in 0..LEVEL.len() {
        let store = build();
        store
            .corrupt_page("s", corrupt, |p| {
                let mut v = p.val_bytes.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x04;
                p.val_bytes = Bytes::from(v);
            })
            .unwrap();
        for cfg in &configs {
            for (what, plan) in [("band", &band), ("nothing", &nothing)] {
                let got = execute(plan, &store, cfg);
                assert!(
                    matches!(got, Err(etsqp_core::Error::Storage(_))),
                    "page {corrupt} corrupt, {what}, threads={} slicing={}: {:?}",
                    cfg.threads,
                    cfg.allow_slicing,
                    got.map(|r| r.rows)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sql_parser_never_panics(input in "\\PC{0,120}") {
        let _ = etsqp_core::sql::parse(&input);
    }

    #[test]
    fn sql_parser_handles_keyword_soup(
        words in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("AND"),
                Just("UNION"), Just("ORDER"), Just("BY"), Just("TIME"),
                Just("SW"), Just("SUM"), Just("("), Just(")"), Just(","),
                Just("*"), Just("ts"), Just("42"), Just(">="), Just("<"),
                Just("."), Just("+"), Just(";"), Just("-7"),
            ],
            0..25,
        )
    ) {
        let input = words.join(" ");
        let _ = etsqp_core::sql::parse(&input);
    }

    #[test]
    fn engine_survives_random_page_corruption(
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..20)
    ) {
        // Flip random bits in an encoded page image; decoding through the
        // engine must either succeed (harmless flips) or error cleanly.
        let ts: Vec<i64> = (0..500).collect();
        let vals: Vec<i64> = (0..500).map(|i| i * 3 % 101).collect();
        let good = Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap();
        let mut val_bytes = good.val_bytes.to_vec();
        for (pos, bit) in flips {
            if !val_bytes.is_empty() {
                let p = pos % val_bytes.len();
                val_bytes[p] ^= 1 << bit;
            }
        }
        let store = SeriesStore::new(1024);
        store.insert_pages("s", vec![Page {
            header: good.header,
            ts_bytes: good.ts_bytes.clone(),
            val_bytes: val_bytes.into(),
            checksum: good.checksum,
        }]);
        let db = IotDb::with_store(store, EngineOptions::default());
        let _ = db.query("SELECT SUM(s) FROM s"); // must not panic
        let _ = db.query("SELECT * FROM s");
    }
}
