//! Page memos by their counters: what a memo-cold and a memo-warm query
//! fold, dispatch and charge. In a binary of its own, because
//! `PartialCache::clear` forgets the memos of the whole process and
//! would make any concurrent test's hits misses; the one other test here
//! runs with the cache off, so it memoizes nothing.

use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::oracle;
use etsqp_core::partial::PartialCache;
use etsqp_core::plan::{execute, PipelineConfig, QueryResult};
use etsqp_encoding::Encoding;
use etsqp_storage::store::SeriesStore;

const PAGES: u64 = 16;
const POINTS: u64 = 64;

fn store(codec: Encoding) -> SeriesStore {
    let store = SeriesStore::new(POINTS as usize);
    store.create_series("s", Encoding::Ts2Diff, codec);
    let n = (PAGES * POINTS) as i64;
    let ts: Vec<i64> = (0..n).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..n).map(|i| (i * 37) % 101 - 30 + i / 8).collect();
    store.append_all("s", &ts, &vals).unwrap();
    store.flush("s").unwrap();
    store
}

#[test]
fn memoized_pages_are_served_without_a_job_and_charged_like_loaded_ones() {
    let cfg = PipelineConfig {
        threads: 2,
        ..Default::default()
    };
    let run = |store: &SeriesStore, plan: &Plan| -> QueryResult {
        store.io().reset();
        execute(plan, store, &cfg).unwrap()
    };
    let hits = |r: &QueryResult| (r.stats.cache_hits, r.stats.cache_misses);
    let dispatched = |r: &QueryResult| r.stats.local_pops + r.stats.steals;
    let whole = |func| Plan::scan("s").aggregate(func);

    for codec in [
        Encoding::Ts2Diff,
        Encoding::DeltaRle,
        Encoding::Sprintz,
        Encoding::StreamVByte,
        Encoding::Gorilla,
    ] {
        let store = store(codec);
        PartialCache::global().clear();
        assert_eq!(PartialCache::global().len(), 0, "{codec:?}");

        // Cold: every page is a job that folds and memoizes.
        let cold = run(&store, &whole(AggFunc::Sum));
        let cold_bytes = store.io().bytes_read();
        assert_eq!(hits(&cold), (0, PAGES), "{codec:?}");
        assert!(dispatched(&cold) > 0, "{codec:?}: the pool ran the jobs");
        assert_eq!(PartialCache::global().len(), PAGES as usize, "{codec:?}");

        // Warm: all of them from the memo, nothing dispatched, the same
        // pages, tuples and bytes charged.
        let warm = run(&store, &whole(AggFunc::Sum));
        assert_eq!(warm.rows, cold.rows, "{codec:?}");
        assert_eq!(hits(&warm), (PAGES, 0), "{codec:?}");
        assert_eq!(
            dispatched(&warm),
            0,
            "{codec:?}: a memoized query dispatches nothing"
        );
        assert_eq!(
            (warm.stats.pages_loaded, warm.stats.tuples_scanned),
            (PAGES, PAGES * POINTS),
            "{codec:?}"
        );
        assert_eq!(store.io().bytes_read(), cold_bytes, "{codec:?}");
        assert_eq!(
            (
                warm.stats.delta_ns,
                warm.stats.agg_ns,
                warm.stats.materialized_bytes
            ),
            (0, 0, 0),
            "{codec:?}: nothing folded"
        );

        // Σ also answers AVG; COUNT, MIN and MAX need no group; the
        // others wait for a fold that computes theirs, then hit.
        for func in [AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            assert_eq!(
                hits(&run(&store, &whole(func))),
                (PAGES, 0),
                "{codec:?} {func:?}"
            );
        }
        for (func, then) in [
            (AggFunc::Variance, AggFunc::Variance),
            (AggFunc::First, AggFunc::Delta),
            (AggFunc::Rate, AggFunc::Last),
        ] {
            let expect = if func == AggFunc::Rate {
                (PAGES, 0)
            } else {
                (0, PAGES)
            };
            assert_eq!(
                hits(&run(&store, &whole(func))),
                expect,
                "{codec:?} {func:?}"
            );
            assert_eq!(
                hits(&run(&store, &whole(then))),
                (PAGES, 0),
                "{codec:?} {then:?}"
            );
        }

        // Page-aligned buckets are served too; a cut page is folded.
        let page_span = (POINTS * 10) as i64;
        let aligned = Plan::scan("s").window(1_000, 2 * page_span, AggFunc::Sum);
        assert_eq!(hits(&run(&store, &aligned)), (PAGES, 0), "{codec:?}");
        let cut = Plan::scan("s")
            .filter(Predicate::time(1_000 + page_span / 2, 1 << 40))
            .aggregate(AggFunc::Sum);
        let r = run(&store, &cut);
        assert_eq!(
            hits(&r),
            (PAGES - 1, 0),
            "{codec:?}: the first page is not cacheable"
        );
        assert_eq!(r.stats.pages_loaded, PAGES, "{codec:?}");

        // A quantile folds every page once; the tail segment, one merge
        // group, then keeps the group's digest, and a warm query reads
        // it on the calling thread.
        let p95 = whole(AggFunc::P95);
        let cold_p95 = run(&store, &p95);
        assert_eq!(hits(&cold_p95), (0, PAGES), "{codec:?}");
        let warm_p95 = run(&store, &p95);
        assert_eq!(warm_p95.rows, cold_p95.rows, "{codec:?}");
        assert_eq!(hits(&warm_p95), (PAGES, 0), "{codec:?}");
        assert_eq!(
            dispatched(&warm_p95),
            0,
            "{codec:?}: a segment digest dispatches nothing"
        );
        assert_eq!(
            PartialCache::global().len(),
            PAGES as usize + 1,
            "{codec:?}: page memos plus the segment digest"
        );

        // Clearing forgets the memos and the digest: cold again, same
        // rows — except for COUNT, MIN and MAX, which a verified header
        // answers alone.
        PartialCache::global().clear();
        assert_eq!(PartialCache::global().len(), 0, "{codec:?}");
        let p95_again = run(&store, &p95);
        assert_eq!(hits(&p95_again), (0, PAGES), "{codec:?}");
        assert_eq!(p95_again.rows, cold_p95.rows, "{codec:?}");
        PartialCache::global().clear();
        for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let r = run(&store, &whole(func));
            assert_eq!(
                (hits(&r), dispatched(&r)),
                ((PAGES, 0), 0),
                "{codec:?} {func:?}"
            );
        }
        let again = run(&store, &whole(AggFunc::Sum));
        assert_eq!(hits(&again), (0, PAGES), "{codec:?}");
        assert_eq!(again.rows, cold.rows, "{codec:?}");

        // Off, nothing is served or counted.
        let off = PipelineConfig {
            partial_cache: false,
            ..cfg
        };
        let r = execute(&whole(AggFunc::Sum), &store, &off).unwrap();
        assert_eq!((hits(&r), r.rows.clone()), ((0, 0), cold.rows), "{codec:?}");
    }
}

/// A page is one job, however many threads there are: a one-page series
/// at eight threads folds on the calling thread and dispatches nothing
/// to the pool (the cache is off, so every query folds).
#[test]
fn a_one_page_series_is_one_job_at_any_thread_count() {
    let store = SeriesStore::new(POINTS as usize);
    store.create_series("one", Encoding::Ts2Diff, Encoding::Ts2Diff);
    let ts: Vec<i64> = (0..POINTS as i64).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..POINTS as i64).map(|i| (i * 37) % 101 - 30).collect();
    store.append_all("one", &ts, &vals).unwrap();
    store.flush("one").unwrap();
    assert_eq!(store.page_count("one").unwrap(), 1);
    let cfg = PipelineConfig {
        threads: 8,
        partial_cache: false,
        ..Default::default()
    };
    for func in [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
    ] {
        let plan = Plan::scan("one").aggregate(func);
        let r = execute(&plan, &store, &cfg).unwrap();
        assert_eq!(
            r.rows,
            oracle::execute(&plan, &store).unwrap().1,
            "{func:?}"
        );
        assert_eq!(r.stats.pages_loaded, 1, "{func:?}");
        assert_eq!(
            r.stats.local_pops + r.stats.steals,
            0,
            "{func:?}: one page, one job, run inline"
        );
    }
}
