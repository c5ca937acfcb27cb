//! Write-path regression suite for the live-ingestion engine.
//!
//! Pins the three bugs of the old `SeriesWriter` + `drain_writer` store
//! at the public-API level:
//!
//! 1. the configured `page_points` silently reset to the default after
//!    the first flush (every later page came out 1024 points);
//! 2. flushing a series that had never sealed a page dropped the writer
//!    (`data.writer = None`), permanently "sealing" the series — every
//!    later append failed with `Misuse`;
//! 3. `append_all` released the store lock between buffering and
//!    draining, so a concurrent `flush` could force-seal a short page
//!    out of the middle of a batch.
//!
//! The seal-error recovery half of bug 2 (a failed `finish()` after
//! `writer.take()` also tombstoned the series) is pinned at the unit
//! level in `ingest::hot::tests::failed_seal_preserves_buffer_and_chunk`
//! via fault injection, since real codec encodes are infallible.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use etsqp_encoding::Encoding;
use etsqp_storage::store::{SeriesStore, StoreOptions};
use etsqp_storage::Error;

fn int_store(page_points: usize) -> SeriesStore {
    let store = SeriesStore::new(page_points);
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store
}

/// Bug 1: a `SeriesStore::new(100)` must keep producing 100-point pages
/// forever, across any number of flushes.
#[test]
fn page_size_stays_configured_across_flushes() {
    let store = int_store(100);
    let mut next_ts = 0i64;
    for round in 0..5 {
        let ts: Vec<i64> = (0..250).map(|i| next_ts + i).collect();
        let vals: Vec<i64> = (0..250).collect();
        store.append_all("s", &ts, &vals).unwrap();
        next_ts += 250;
        store.flush("s").unwrap();
        let pages = store.peek_pages("s").unwrap();
        // Each round: two full 100-point pages + one short 50-point page.
        assert_eq!(pages.len(), 3 * (round + 1), "round {round}");
    }
    let counts: Vec<u32> = store
        .peek_pages("s")
        .unwrap()
        .iter()
        .map(|p| p.header.count)
        .collect();
    for (i, &c) in counts.iter().enumerate() {
        let want = if i % 3 == 2 { 50 } else { 100 };
        assert_eq!(c, want, "page {i} of {counts:?}");
    }
}

/// Bug 2: flushing an empty, never-written series must be a no-op that
/// leaves the series writable — not a permanent tombstone.
#[test]
fn empty_flush_then_append_works() {
    let store = int_store(64);
    store.flush("s").unwrap();
    store.flush("s").unwrap();
    store.append("s", 1, 10).unwrap();
    store.flush("s").unwrap();
    assert_eq!(store.point_count("s").unwrap(), 1);
    // And again after a real flush cycle.
    store.flush("s").unwrap();
    store.append("s", 2, 20).unwrap();
    store.flush("s").unwrap();
    assert_eq!(store.point_count("s").unwrap(), 2);
}

/// Bug 3: a batch append is atomic against concurrent flushes — no short
/// page can be sealed out of the middle of one `append_all`.
#[test]
fn append_all_is_atomic_against_concurrent_flush() {
    let store = SeriesStore::with_options(StoreOptions {
        page_points: 256,
        shards: 8,
        seal_interval: None,
    });
    store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
    let stop = Arc::new(AtomicBool::new(false));
    let flusher = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                store.flush("s").unwrap();
            }
        })
    };
    const N: i64 = 100_000;
    let ts: Vec<i64> = (0..N).collect();
    let vals: Vec<i64> = (0..N).map(|i| i % 997).collect();
    store.append_all("s", &ts, &vals).unwrap();
    stop.store(true, Ordering::Relaxed);
    flusher.join().unwrap();
    store.flush("s").unwrap();

    let pages = store.peek_pages("s").unwrap();
    let total: u64 = pages.iter().map(|p| p.header.count as u64).sum();
    assert_eq!(total, N as u64, "no point lost or duplicated");
    // The batch seals only full 256-point pages; the single short page
    // (the final 100_000 % 256 tail) can only come from the tail flush.
    // The old racy drain allowed a concurrent flush to cut arbitrary
    // short pages mid-batch.
    let short: Vec<u32> = pages
        .iter()
        .map(|p| p.header.count)
        .filter(|&c| c != 256)
        .collect();
    assert!(
        short.len() <= 1,
        "concurrent flush sliced short pages out of one batch: {short:?}"
    );
    if let Some(&tail) = short.first() {
        assert_eq!(tail, (N % 256) as u32);
        assert_eq!(pages.last().unwrap().header.count, tail, "tail page only");
    }
}

/// Many threads appending to disjoint series while another thread
/// snapshots: every snapshot must be a consistent prefix (sealed pages
/// all full, sealed + hot monotone per series), and nothing deadlocks
/// on the sharded map.
#[test]
fn parallel_appenders_with_concurrent_snapshots() {
    const WRITERS: usize = 8;
    const POINTS: i64 = 5_000;
    let store = SeriesStore::with_options(StoreOptions {
        page_points: 128,
        shards: 4, // fewer shards than writers: shards are shared
        seal_interval: None,
    });
    for w in 0..WRITERS {
        store.create_series(&format!("s{w}"), Encoding::Ts2Diff, Encoding::Ts2Diff);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last_seen = [0u64; WRITERS];
            while !stop.load(Ordering::Relaxed) {
                for (w, last) in last_seen.iter_mut().enumerate() {
                    let snap = store.snapshot(&format!("s{w}")).unwrap();
                    let sealed: u64 = snap.pages().map(|p| p.header.count as u64).sum();
                    let hot = snap.hot.as_ref().map_or(0, |h| h.len() as u64);
                    let seen = sealed + hot;
                    assert!(seen >= *last, "snapshot went backwards: {seen} < {last}");
                    assert!(
                        snap.pages().all(|p| p.header.count == 128),
                        "sealed page not full under pure appends"
                    );
                    *last = seen;
                }
            }
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            std::thread::spawn(move || {
                let name = format!("s{w}");
                for i in 0..POINTS {
                    store.append(&name, i, i * w as i64).unwrap();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    for w in 0..WRITERS {
        let name = format!("s{w}");
        let total =
            store.point_count(&name).unwrap() + store.buffered_points(&name).unwrap() as u64;
        assert_eq!(total, POINTS as u64);
    }
}

/// Type confusion between int and float series stays a typed error and
/// never tombstones the series.
#[test]
fn type_misuse_is_recoverable() {
    let store = SeriesStore::new(32);
    store.create_series("i", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.create_series_f64("f", Encoding::Ts2Diff, Encoding::Chimp);
    assert!(matches!(
        store.append_f64("i", 1, 1.0),
        Err(Error::Misuse(_))
    ));
    assert!(matches!(store.append("f", 1, 1), Err(Error::Misuse(_))));
    // The failed calls must not have damaged either series.
    store.append("i", 1, 1).unwrap();
    store.append_f64("f", 1, 1.0).unwrap();
    store.flush("i").unwrap();
    store.flush("f").unwrap();
    assert_eq!(store.point_count("i").unwrap(), 1);
    assert_eq!(store.point_count("f").unwrap(), 1);
}

/// Out-of-order rejection holds within the hot buffer (an equal or an
/// earlier timestamp) and across seal boundaries: after a page seals,
/// the next append must still be after the sealed tail.
#[test]
fn out_of_order_rejected_in_buffer_and_across_seal() {
    let store = int_store(4);
    store.append("s", 0, 0).unwrap();
    store.append("s", 1, 0).unwrap();
    for stale in [1, 0] {
        assert!(matches!(
            store.append("s", stale, 0),
            Err(Error::OutOfOrder { last: 1, .. })
        ));
    }
    store.append("s", 2, 0).unwrap();
    store.append("s", 3, 0).unwrap();
    assert_eq!(store.page_count("s").unwrap(), 1, "sealed at 4 points");
    assert!(matches!(
        store.append("s", 3, 0),
        Err(Error::OutOfOrder { last: 3, .. })
    ));
    store.append("s", 4, 0).unwrap();
}

/// Time-based sealing: with a `seal_interval`, a slow series seals a
/// short page once its buffered span reaches the interval.
#[test]
fn seal_interval_bounds_staleness() {
    let store = SeriesStore::with_options(StoreOptions {
        page_points: 1_000_000,
        shards: 1,
        seal_interval: Some(1_000),
    });
    store.create_series("slow", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.append("slow", 0, 1).unwrap();
    store.append("slow", 500, 2).unwrap();
    assert_eq!(store.page_count("slow").unwrap(), 0);
    store.append("slow", 1_000, 3).unwrap(); // span hits the interval
    assert_eq!(store.page_count("slow").unwrap(), 1);
    assert_eq!(store.buffered_points("slow").unwrap(), 0);
    assert_eq!(store.point_count("slow").unwrap(), 3);
}
