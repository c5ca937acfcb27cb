//! Concurrent-query coverage for the persistent pool: one `Arc<IotDb>`
//! hammered from many OS threads must agree with serial execution, and a
//! panicking query must not poison the shared pool for its neighbours.

use std::sync::Arc;

use etsqp_core::cancel::CancellationToken;
use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::exec::ExecStats;
use etsqp_core::{pool, Error};

const OS_THREADS: usize = 8;

/// Builds a deterministic two-series database with enough pages that
/// parallel queries schedule real morsel batches.
fn build_db() -> IotDb {
    let opts = EngineOptions::default()
        .with_threads(8)
        .with_page_points(64);
    let db = IotDb::new(opts);
    for series in ["temp", "pressure"] {
        db.create_series(series).unwrap();
    }
    for i in 0..4096i64 {
        db.append("temp", i * 1000, 60 + (i % 25) - (i % 7))
            .unwrap();
        db.append("pressure", i * 1000, 100_000 + (i % 911) * 3)
            .unwrap();
    }
    db.flush().unwrap();
    db
}

/// The query battery: aggregates, selective windows, group-by and scans
/// whose results are cheap to compare structurally.
fn battery() -> Vec<String> {
    vec![
        "SELECT SUM(temp) FROM temp".to_string(),
        "SELECT COUNT(temp) FROM temp WHERE time >= 100000 AND time <= 3000000".to_string(),
        "SELECT AVG(temp) FROM temp WHERE temp >= 55 AND temp <= 75".to_string(),
        "SELECT MIN(temp) FROM temp WHERE time >= 500000".to_string(),
        "SELECT MAX(temp) FROM temp WHERE time >= 500000".to_string(),
        "SELECT SUM(pressure) FROM pressure WHERE time <= 2000000".to_string(),
        "SELECT COUNT(pressure) FROM pressure WHERE pressure >= 100500".to_string(),
        "SELECT AVG(pressure) FROM pressure SW(0, 400000)".to_string(),
        "SELECT SUM(temp) FROM temp SW(0, 256000)".to_string(),
    ]
}

#[test]
fn arc_iotdb_from_eight_threads_agrees_with_serial() {
    let db = Arc::new(build_db());
    let queries = battery();

    // Serial reference results, computed once up front.
    let expected: Vec<_> = queries
        .iter()
        .map(|q| db.query(q).expect("serial query"))
        .collect();

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..OS_THREADS {
            let db = Arc::clone(&db);
            let queries = &queries;
            let expected = &expected;
            handles.push(s.spawn(move || {
                // Each OS thread replays the battery several times,
                // phase-shifted so different queries overlap in flight.
                for round in 0..6 {
                    for k in 0..queries.len() {
                        let i = (k + t + round) % queries.len();
                        let got = db.query(&queries[i]).expect("concurrent query");
                        assert_eq!(got.columns, expected[i].columns, "query {}", queries[i]);
                        assert_eq!(got.rows, expected[i].rows, "query {}", queries[i]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn panicking_query_does_not_poison_shared_pool() {
    let db = Arc::new(build_db());
    let queries = battery();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| db.query(q).expect("serial query"))
        .collect();

    // Warm the pool so the spawn counter is stable before we measure.
    db.query(&queries[0]).unwrap();
    let spawned_before = pool::spawned_threads();

    std::thread::scope(|s| {
        // Half the threads run healthy queries...
        let mut handles = Vec::new();
        for t in 0..OS_THREADS / 2 {
            let db = Arc::clone(&db);
            let queries = &queries;
            let expected = &expected;
            handles.push(s.spawn(move || {
                for round in 0..8 {
                    let i = (t + round) % queries.len();
                    let got = db.query(&queries[i]).expect("healthy query");
                    assert_eq!(got.rows, expected[i].rows);
                }
            }));
        }
        // ...while the other half keep throwing panicking batches at the
        // same pool through the same scheduler entry point.
        for _ in 0..OS_THREADS / 2 {
            handles.push(s.spawn(|| {
                let stats = ExecStats::default();
                for round in 0..8 {
                    let out = etsqp_core::exec::run_jobs(
                        (0..16).collect::<Vec<i32>>(),
                        8,
                        &stats,
                        &CancellationToken::none(),
                        |j| {
                            if j % 5 == round % 5 {
                                panic!("in-flight failure {round}");
                            }
                            j
                        },
                    );
                    assert!(matches!(out, Err(Error::Worker(_))));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    // The pool survived: same worker threads, and it still answers.
    assert_eq!(
        pool::spawned_threads(),
        spawned_before,
        "panics must not kill (and force respawn of) pool workers"
    );
    for (q, exp) in queries.iter().zip(&expected) {
        let got = db.query(q).unwrap();
        assert_eq!(got.rows, exp.rows, "post-panic query {q}");
    }
}

#[test]
fn hot_path_spawns_no_threads_after_warmup() {
    let db = Arc::new(build_db());
    db.query("SELECT SUM(temp) FROM temp").unwrap();
    let after_warmup = pool::spawned_threads();
    for _ in 0..200 {
        db.query("SELECT COUNT(temp) FROM temp WHERE temp >= 60")
            .unwrap();
    }
    assert_eq!(
        pool::spawned_threads(),
        after_warmup,
        "200 short queries must reuse the persistent pool"
    );
}

#[test]
fn cancelled_query_returns_typed_error_and_pool_survives() {
    use etsqp_core::cancel::CancellationToken;

    let db = Arc::new(build_db());
    let queries = battery();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| db.query(q).expect("serial query"))
        .collect();
    db.query(&queries[0]).unwrap();
    let spawned_before = pool::spawned_threads();

    // A pre-cancelled token: the query must not run a single morsel.
    let ctl = CancellationToken::new();
    ctl.cancel();
    let got = db.query_ctl("SELECT SUM(temp) FROM temp", &ctl);
    assert!(
        matches!(got, Err(Error::Cancelled)),
        "pre-cancelled query must return Error::Cancelled, got {got:?}"
    );

    // Cancel mid-flight from another thread, repeatedly: whichever
    // morsel observes the token first stops the batch; the result is
    // either Error::Cancelled or (if the query won the race) Ok equal
    // to the serial answer — never anything else.
    std::thread::scope(|s| {
        for round in 0..16 {
            let ctl = CancellationToken::new();
            let canceller = {
                let ctl = ctl.clone();
                s.spawn(move || {
                    if round % 4 != 0 {
                        std::thread::sleep(std::time::Duration::from_micros(50 * round as u64));
                    }
                    ctl.cancel();
                })
            };
            let got = db.query_ctl(&queries[0], &ctl);
            canceller.join().unwrap();
            match got {
                Err(Error::Cancelled) => {}
                Ok(r) => assert_eq!(r.rows, expected[0].rows, "raced query must stay correct"),
                Err(e) => panic!("cancelled query must not fail with {e}"),
            }
        }
    });

    // The shared pool is unharmed: no respawn, healthy queries agree.
    assert_eq!(
        pool::spawned_threads(),
        spawned_before,
        "cancellation must drain batches, not kill pool workers"
    );
    for (q, exp) in queries.iter().zip(&expected) {
        let got = db.query(q).unwrap();
        assert_eq!(got.rows, exp.rows, "post-cancel query {q}");
    }
}

#[test]
fn deadlined_query_returns_timeout_and_pool_survives() {
    let db = Arc::new(build_db());
    let queries = battery();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| db.query(q).expect("serial query"))
        .collect();
    db.query(&queries[0]).unwrap();
    let spawned_before = pool::spawned_threads();

    // An already-expired deadline: checked before the first morsel.
    let got = db.query_with_timeout("SELECT SUM(temp) FROM temp", std::time::Duration::ZERO);
    assert!(
        matches!(got, Err(Error::Timeout)),
        "expired deadline must return Error::Timeout, got {got:?}"
    );

    // A generous deadline never fires.
    let got = db
        .query_with_timeout(&queries[0], std::time::Duration::from_secs(3600))
        .expect("generous deadline");
    assert_eq!(got.rows, expected[0].rows);

    assert_eq!(
        pool::spawned_threads(),
        spawned_before,
        "deadlines must drain batches, not kill pool workers"
    );
    for (q, exp) in queries.iter().zip(&expected) {
        let got = db.query(q).unwrap();
        assert_eq!(got.rows, exp.rows, "post-timeout query {q}");
    }
}
