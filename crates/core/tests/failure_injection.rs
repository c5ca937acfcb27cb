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
    let bad = Page::from_parts(
        good.header,
        good.ts_bytes.clone(),
        good.val_bytes.slice(0..good.val_bytes.len() / 2),
        good.checksum,
    );
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

/// Pruned pages are checksum-verified on the calling thread before any
/// kept page's job runs: wherever a corrupt page falls — before the
/// first kept page, between kept pages, after the last, or kept itself
/// — the query must abort, at any thread count.
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
    let configs: Vec<PipelineConfig> = [1, 2, 4, 8]
        .into_iter()
        .map(|threads| PipelineConfig {
            threads,
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
                    "page {corrupt} corrupt, {what}, threads={}: {:?}",
                    cfg.threads,
                    got.map(|r| r.rows)
                );
            }
        }
    }
}

/// Float pages are pruned on their header bounds like integer pages, so
/// a pruned float page is checksum-verified like one too: a page whose
/// `max_value` (or `last_ts`) was lowered below the filter must abort
/// the aggregate (or the scan), not silently drop out of it.
#[test]
fn float_pages_pruned_on_a_lying_header_abort() {
    use etsqp_core::expr::TimeRange;
    use etsqp_core::float::FloatRange;
    use etsqp_core::plan::PipelineConfig;
    use etsqp_encoding::f64_to_ordered_i64;

    let build = || {
        let store = SeriesStore::new(64);
        store.create_series_f64("f", Encoding::Ts2Diff, Encoding::GorillaFloat);
        for i in 0..256i64 {
            store.append_f64("f", i, 10.0 + i as f64 / 8.0).unwrap();
        }
        store.flush("f").unwrap();
        let opts = EngineOptions {
            pipeline: PipelineConfig {
                threads: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        IotDb::with_store(store, opts)
    };
    // Values run 10.0 ..= 41.875; the last page holds 34.0 and up.
    let above = Some(FloatRange { lo: 35.0, hi: 50.0 });
    let late = Some(TimeRange { lo: 200, hi: 300 });
    let clean = build();
    let count = clean.aggregate_f64("f", None, above, AggFunc::Count);
    assert_eq!(count.unwrap(), Some(56.0));
    assert_eq!(clean.scan_f64("f", late).unwrap().0.len(), 56);

    let db = build();
    db.store()
        .corrupt_page("f", 3, |p| p.header.max_value = f64_to_ordered_i64(20.0))
        .unwrap();
    let got = db.aggregate_f64("f", None, above, AggFunc::Count);
    assert!(
        matches!(got, Err(etsqp_core::Error::Storage(_))),
        "value-pruned on a lie: {got:?}"
    );
    let db = build();
    db.store()
        .corrupt_page("f", 3, |p| p.header.last_ts = 150)
        .unwrap();
    let got = db.scan_f64("f", late);
    assert!(
        matches!(got, Err(etsqp_core::Error::Storage(_))),
        "time-pruned on a lie: {:?}",
        got.map(|(t, _)| t.len())
    );
}

/// A kept page is hashed once on every path, a float page's and the
/// byte-serial engine's included: `Page::decode` goes through the
/// verified mark, so after one query every kept page carries it (and the
/// next query pays a load, not a hash).
#[test]
fn kept_float_and_serial_pages_are_marked_verified() {
    use etsqp_core::plan::{execute, PipelineConfig};

    let cfg = PipelineConfig {
        threads: 2,
        ..Default::default()
    };
    let store = SeriesStore::new(64);
    store.create_series_f64("f", Encoding::Ts2Diff, Encoding::GorillaFloat);
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    for i in 0..256i64 {
        store.append_f64("f", i, 10.0 + i as f64 / 8.0).unwrap();
        store.append("s", i, i * 3 % 101).unwrap();
    }
    store.flush("f").unwrap();
    store.flush("s").unwrap();
    let marked = |series| {
        store
            .peek_pages(series)
            .unwrap()
            .iter()
            .all(|p| p.is_verified())
    };
    assert!(
        !marked("f") && !marked("s"),
        "nothing has read the pages yet"
    );

    execute(&Plan::scan("f").aggregate(AggFunc::Sum), &store, &cfg).unwrap();
    assert!(marked("f"), "a float aggregate left a kept page unmarked");
    let serial = PipelineConfig {
        vectorized: false,
        ..cfg
    };
    for plan in [Plan::scan("s").aggregate(AggFunc::Sum), Plan::scan("s")] {
        execute(&plan, &store, &serial).unwrap();
    }
    assert!(
        marked("s"),
        "a vectorized: false query left a kept page unmarked"
    );
}

/// A header that lies its way into coverage: page 0 truly holds
/// −500 ..= 700, and its header is narrowed to 1 ..= 700 so that `v > 0`
/// seems to cover it — the page would then fold unfiltered, negatives
/// and all, or answer MAX from the header. The covering verdict trusts
/// the header, so the checksum must come first: SUM, VARIANCE and MAX
/// abort memo-cold and memo-warm (every page, the liar's old object
/// included, folded and memoized before the lie), at 1, 2 and 8 threads.
#[test]
fn a_header_narrowed_into_coverage_aborts() {
    use etsqp_core::expr::Predicate;
    use etsqp_core::plan::{execute, PipelineConfig};

    const POINTS: i64 = 64;
    // Page 0 straddles the filter, page 1 lies inside it, page 2 below
    // it, page 3 straddles it again.
    let level = |p: i64, i: i64| match p {
        0 => -500 + i * 1200 / (POINTS - 1),
        1 => 1 + i * 9,
        2 => -300 + i,
        _ => -200 + i * 17,
    };
    let build = || {
        let store = SeriesStore::new(POINTS as usize);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        for p in 0..4 {
            for i in 0..POINTS {
                store.append("s", p * POINTS + i, level(p, i)).unwrap();
            }
        }
        store.flush("s").unwrap();
        store
    };
    let positive = Predicate::value(1, i64::MAX);
    let funcs = [AggFunc::Sum, AggFunc::Variance, AggFunc::Max];
    let narrow = |p: &mut Page| {
        assert_eq!((p.header.min_value, p.header.max_value), (-500, 700));
        p.header.min_value = 1;
    };
    for threads in [1usize, 2, 8] {
        let cfg = PipelineConfig {
            threads,
            ..Default::default()
        };
        for warm in [false, true] {
            let store = build();
            if warm {
                for func in funcs {
                    for pred in [Predicate::default(), positive] {
                        let plan = Plan::scan("s").filter(pred).aggregate(func);
                        let (_, want) = etsqp_core::oracle::execute(&plan, &store).unwrap();
                        for _ in 0..2 {
                            assert_eq!(execute(&plan, &store, &cfg).unwrap().rows, want);
                        }
                    }
                }
            }
            store.corrupt_page("s", 0, narrow).unwrap();
            for func in funcs {
                let plan = Plan::scan("s").filter(positive).aggregate(func);
                let got = execute(&plan, &store, &cfg);
                assert!(
                    matches!(got, Err(etsqp_core::Error::Storage(_))),
                    "{func:?} threads={threads} warm={warm}: a lying header answered {:?}",
                    got.map(|r| r.rows)
                );
            }
        }
    }
}

/// A Delta-RLE column built pair by pair, lies and all: `count` is what
/// the column header declares, whatever the runs add up to.
fn raw_delta_rle(count: u32, first: i64, pairs: &[(i64, u64)]) -> Vec<u8> {
    use etsqp_encoding::bitio::{bits_needed_u64, BitWriter};
    let min_delta = pairs.iter().map(|p| p.0).min().unwrap_or(0);
    let width = |it: &mut dyn Iterator<Item = u64>| it.map(bits_needed_u64).max().unwrap_or(0);
    let dw = width(&mut pairs.iter().map(|p| p.0.wrapping_sub(min_delta) as u64));
    let rw = width(&mut pairs.iter().map(|p| p.1));
    let mut w = BitWriter::new();
    w.write_bits(count as u64, 32);
    w.write_bits(first as u64, 64);
    w.write_bits(pairs.len() as u64, 32);
    w.write_bits(min_delta as u64, 64);
    w.write_bits(dw as u64, 8);
    w.write_bits(rw as u64, 8);
    for &(d, r) in pairs {
        w.write_bits(d.wrapping_sub(min_delta) as u64, dw);
        w.write_bits(r, rw);
    }
    w.finish()
}

/// The Delta–Repeat closed form used to trust its runs: it never held
/// `1 + Σ run` against the declared count, so pairs that disagree with it
/// answered a wrong COUNT / SUM as a whole-page form where decoding
/// answered the decoder's typed error. Every page is one run-space walker
/// now, the cursor's: the same error whether the page is whole, cut by
/// time or filtered by value; and what run space cannot represent goes to
/// the decoder.
#[test]
fn delta_rle_closed_form_checks_its_runs() {
    use etsqp_core::expr::Predicate;
    use etsqp_core::fused::aggregate_delta_rle;
    use etsqp_core::plan::{execute, PipelineConfig};
    use etsqp_encoding::delta_rle;
    use etsqp_storage::page::PageHeader;
    use etsqp_storage::Bytes;

    const N: u32 = 40;
    let ts: Vec<i64> = (0..N as i64).collect();
    // A sealed page (valid checksum) around a value column taken as is.
    let store_of = |column: &[u8], (min_value, max_value): (i64, i64)| {
        let header = PageHeader {
            count: N,
            first_ts: 0,
            last_ts: N as i64 - 1,
            min_value,
            max_value,
            ts_encoding: Encoding::Ts2Diff,
            val_encoding: Encoding::DeltaRle,
        };
        let store = SeriesStore::new(64);
        let ts_bytes = Bytes::from(Encoding::Ts2Diff.encode_i64(&ts));
        let page = Page::new(header, ts_bytes, Bytes::copy_from_slice(column));
        store.insert_pages("s", vec![page]);
        store
    };
    let cfg = PipelineConfig {
        partial_cache: false,
        ..Default::default()
    };
    // The whole page runs the cursor (FIRST / LAST too, with no value
    // filter); with its first tuple cut off by time, the cursor folds a
    // subrange; LAST under a value band decodes.
    let cut = Predicate::time(1, i64::MAX);

    // Runs short of the count, long of it, and one run of `u32::MAX`.
    let hostile: [(&str, Vec<u8>); 3] = [
        ("short", raw_delta_rle(N, 5, &[(1, 9), (0, 20)])),
        ("long", raw_delta_rle(N, 5, &[(1, 9), (0, 20), (2, 30)])),
        ("u32::MAX", raw_delta_rle(N, 5, &[(1, u32::MAX as u64)])),
    ];
    for (what, column) in &hostile {
        let want = etsqp_core::Error::from(delta_rle::decode(column).unwrap_err()).to_string();
        let page = delta_rle::parse(column).unwrap();
        assert_eq!(
            aggregate_delta_rle(&page).unwrap_err().to_string(),
            want,
            "{what}"
        );
        let store = store_of(column, (0, 100));
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Last,
            AggFunc::Variance,
        ] {
            let whole = Plan::scan("s").aggregate(func);
            let decoded = Plan::scan("s").filter(cut).aggregate(func);
            let band = Plan::scan("s")
                .filter(Predicate::value(6, i64::MAX))
                .aggregate(func);
            for (how, plan) in [("whole", &whole), ("decoded", &decoded), ("band", &band)] {
                let got = execute(plan, &store, &cfg).map(|r| r.rows);
                assert_eq!(
                    got.as_ref().map_err(|e| e.to_string()),
                    Err(want.clone()),
                    "{what} {func:?} {how}"
                );
            }
        }
    }

    // Steps of `i64::MIN` (the encoder's wrapped deltas) and values at
    // both limits: run space refuses what it cannot represent, the gates
    // send such a page to the decoder, and filter bounds at the limits
    // clip without wrapping. Answers are the oracle's.
    let flips: Vec<i64> = (0..N as i64).map(|i| (i % 2) * i64::MIN).collect();
    let heights: Vec<i64> = (0..N as i64).map(|i| (i % 2) * i64::MAX).collect();
    let ramps: Vec<i64> = (0..N as i64).map(|i| i64::MAX - 3 * (i / 4)).collect();
    for (what, vals) in [("flips", &flips), ("heights", &heights), ("ramps", &ramps)] {
        let column = delta_rle::encode(vals);
        let page = delta_rle::parse(&column).unwrap();
        match aggregate_delta_rle(&page) {
            Ok(state) => assert_eq!(state.sum, vals.iter().map(|&v| v as i128).sum::<i128>()),
            Err(e) => assert!(matches!(e, etsqp_core::Error::Overflow), "{what}: {e}"),
        }
        let range = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
        let store = store_of(&column, range);
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            for value in [
                None,
                Some((i64::MIN, i64::MAX)),
                Some((i64::MAX, i64::MAX)),
                Some((i64::MIN, i64::MIN)),
                Some((i64::MIN + 1, i64::MAX - 1)),
            ] {
                for time in [None, cut.time] {
                    let plan = Plan::scan("s")
                        .filter(Predicate { time, value })
                        .aggregate(func);
                    let (_, want) = etsqp_core::oracle::execute(&plan, &store).unwrap();
                    let got = execute(&plan, &store, &cfg).unwrap();
                    assert_eq!(got.rows, want, "{what} {func:?} {value:?} {time:?}");
                }
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
        store.insert_pages("s", vec![Page::from_parts(
            good.header,
            good.ts_bytes.clone(),
            val_bytes.into(),
            good.checksum,
        )]);
        let db = IotDb::with_store(store, EngineOptions::default());
        let _ = db.query("SELECT SUM(s) FROM s"); // must not panic
        let _ = db.query("SELECT * FROM s");
    }
}
